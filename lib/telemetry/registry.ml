(* A named collection of instruments.

   Registration takes a mutex (it happens at setup time); the hot write
   paths touch only the instruments themselves.  A scrape walks the
   metrics in registration order and freezes every value into a plain
   snapshot, so exporters and dashboards work on immutable data and the
   output ordering is deterministic by construction. *)

type state = { st_states : string array; st_current : int Atomic.t }

let set_state st label =
  let n = Array.length st.st_states in
  let rec find i =
    if i >= n then
      invalid_arg (Fmt.str "Registry.set_state: unknown state %S" label)
    else if String.equal st.st_states.(i) label then i
    else find (i + 1)
  in
  Atomic.set st.st_current (find 0)

let state_current st = st.st_states.(Atomic.get st.st_current)

type instrument =
  | I_counter of Instrument.counter
  | I_gauge of Instrument.gauge
  | I_histogram of Instrument.histogram
  | I_hires of Instrument.hires
  | I_state of state

type metric = {
  m_name : string;
  m_help : string;
  m_labels : (string * string) list;
  m_inst : instrument;
}

type t = { mutable rev_metrics : metric list; mu : Mutex.t }

let create () = { rev_metrics = []; mu = Mutex.create () }

let sort_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

let register t ~name ~help ~labels inst =
  let m =
    { m_name = name; m_help = help; m_labels = sort_labels labels; m_inst = inst }
  in
  Mutex.protect t.mu (fun () -> t.rev_metrics <- m :: t.rev_metrics)

let counter t ?(labels = []) ~help name =
  let c = Instrument.counter () in
  register t ~name ~help ~labels (I_counter c);
  c

let gauge t ?(labels = []) ?init ~help name =
  let g = Instrument.gauge ?init () in
  register t ~name ~help ~labels (I_gauge g);
  g

let histogram t ?(labels = []) ~help name =
  let h = Instrument.histogram () in
  register t ~name ~help ~labels (I_histogram h);
  h

let hires t ?(labels = []) ~help name =
  let h = Instrument.hires () in
  register t ~name ~help ~labels (I_hires h);
  h

let state t ?(labels = []) ?init ~key ~states ~help name =
  if Array.length states = 0 then invalid_arg "Registry.state: no states";
  let st = { st_states = states; st_current = Atomic.make 0 } in
  (match init with Some l -> set_state st l | None -> ());
  register t ~name ~help
    ~labels:((key, "") :: labels)
    (I_state st);
  (* The [key] label slot is a placeholder: the exporter expands a state
     metric into one 0/1 sample per state, substituting each state name
     as the [key] label's value. *)
  st

(* ---- scraping ---- *)

type value =
  | Num of int
  | Hist of Instrument.hsnap
  | Hires of Instrument.hsnap
  | State_of of { states : string array; current : int }

type kind = Counter | Gauge | Histogram | State

type sample = {
  s_name : string;
  s_help : string;
  s_kind : kind;
  s_labels : (string * string) list;
  s_value : value;
}

type snapshot = { ts : int; samples : sample list }

let sample_of_metric m =
  let kind, value =
    match m.m_inst with
    | I_counter c -> (Counter, Num (Instrument.value c))
    | I_gauge g -> (Gauge, Num (Instrument.gauge_value g))
    | I_histogram h -> (Histogram, Hist (Instrument.hist_snapshot h))
    | I_hires h -> (Histogram, Hires (Instrument.hires_snapshot h))
    | I_state st ->
        ( State,
          State_of { states = st.st_states; current = Atomic.get st.st_current }
        )
  in
  {
    s_name = m.m_name;
    s_help = m.m_help;
    s_kind = kind;
    s_labels = m.m_labels;
    s_value = value;
  }

let scrape t ~ts =
  let metrics = Mutex.protect t.mu (fun () -> t.rev_metrics) in
  { ts; samples = List.rev_map sample_of_metric metrics }

(* ---- snapshot lookups (dashboards, tests) ---- *)

let state_key labels =
  (* The placeholder inserted by [state]: the label whose value the
     exporter substitutes per state. *)
  List.find_opt (fun (_, v) -> String.equal v "") labels

let find snap ~name ~labels =
  let labels = sort_labels labels in
  List.find_opt
    (fun s ->
      String.equal s.s_name name
      &&
      match s.s_value with
      | State_of _ -> (
          match state_key s.s_labels with
          | Some (k, _) ->
              List.for_all (fun (k', v') -> k' = k || List.mem (k', v') labels)
                s.s_labels
              && List.for_all
                   (fun (k', v') -> k' = k || List.mem (k', v') s.s_labels)
                   labels
          | None -> s.s_labels = labels)
      | Num _ | Hist _ | Hires _ -> s.s_labels = labels)
    snap.samples

let sample_num snap ~name ~labels =
  match find snap ~name ~labels with
  | Some { s_value = Num v; _ } -> Some v
  | Some _ | None -> None

let sample_hist snap ~name ~labels =
  match find snap ~name ~labels with
  | Some { s_value = Hist h; _ } | Some { s_value = Hires h; _ } -> Some h
  | Some _ | None -> None

let sample_state snap ~name ~labels =
  match find snap ~name ~labels with
  | Some { s_value = State_of { states; current }; _ } -> Some states.(current)
  | Some _ | None -> None
