module Stm = Tm_stm.Stm
module Tel = Tm_telemetry
module Prng = Tm_sim.Prng

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let drain_units = 12

type config = {
  c_profile : Workload.profile;
  c_algo : Stm.Algo.t;
  c_seed : int;
  c_domains : int;
  c_clients : int;
  c_ops : int;
  c_keys : int;
  c_stripes : int;
  c_journal : bool;
  c_queue_cap : int;
  c_arrival : Arrival.t option;
      (* open-loop arrival clock; None = closed loop *)
}

let validate cfg =
  if cfg.c_domains < 1 then invalid_arg "Server.config: domains < 1";
  if cfg.c_clients < cfg.c_domains then
    invalid_arg "Server.config: clients < domains";
  if cfg.c_ops < 1 then invalid_arg "Server.config: ops < 1";
  if cfg.c_keys < 4 then invalid_arg "Server.config: keys < 4";
  if cfg.c_queue_cap < 1 then invalid_arg "Server.config: queue_cap < 1"

let config ?(algo = Stm.Algo.Tl2) ?(clients = 10_000) ?(ops = 4)
    ?(keys = 1024) ?(stripes = 64) ?(journal = false)
    ?(queue_cap = 2048) ?arrival ~profile ~seed ~domains () =
  let cfg =
    {
      c_profile = profile;
      c_algo = algo;
      c_seed = seed;
      c_domains = domains;
      c_clients = clients;
      c_ops = ops;
      c_keys = keys;
      c_stripes = stripes;
      c_journal = journal;
      c_queue_cap = queue_cap;
      c_arrival = arrival;
    }
  in
  validate cfg;
  cfg

let workload cfg =
  Workload.create ~profile:cfg.c_profile ~seed:cfg.c_seed ~keys:cfg.c_keys ()

let total_requests cfg = cfg.c_clients * cfg.c_ops

(* The admission model: a virtual bounded queue in cost units, drained
   at a fixed rate per arrival.  Pure per-domain function of the request
   stream, hence canonical.  Only the shape is drawn before the verdict:
   [f client index shape admitted] fills the ops if it needs them. *)
let admit_loop cfg wl g ~domain f =
  let q = ref 0 in
  for index = 0 to cfg.c_ops - 1 do
    let client = ref domain in
    while !client < cfg.c_clients do
      let shape = Workload.shape wl g ~client:!client ~index in
      q := max 0 (!q - drain_units);
      let cost = Workload.shape_cost shape in
      let admitted = !q + cost <= cfg.c_queue_cap in
      if admitted then q := !q + cost;
      f !client index shape admitted;
      client := !client + cfg.c_domains
    done
  done

let iter_requests cfg wl ~domain ~f =
  let g = Prng.create 0 in
  let buf = Store.buf_create ~capacity:Workload.max_ops in
  admit_loop cfg wl g ~domain (fun client index shape admitted ->
      Workload.fill wl g shape buf;
      f ~client ~index (Workload.decode shape buf) ~admitted)

(* {2 Serving a profile} *)

type lat = { l_kind : string; l_snap : Tel.Instrument.hsnap }

type per_domain = {
  d_requests : int;
  d_admitted : int;
  d_shed : int;
  d_mutators : int;
}

type outcome = {
  s_config : config;
  s_requests : int;
  s_admitted : int;
  s_shed : int;
  s_batched : int;
  s_mutators : int;
  s_by_kind : (string * int) list;
  s_per_domain : per_domain array;
  s_journal_ok : bool;
  s_conserved : bool;
  s_final : int array;
  s_wall : float;
  s_commits : int;
  s_aborts : int;
  s_flushes : int;
  s_latency : lat list;
  s_open : Tel.Latency_recorder.summary option;
      (* open-loop latency: present iff the run had an arrival clock *)
}

let run ?on_sample cfg =
  validate cfg;
  Stm.with_algo cfg.c_algo @@ fun () ->
  let store =
    Store.create ~stripes:cfg.c_stripes ~journal:cfg.c_journal
      ~keys:cfg.c_keys ()
  in
  let wl = workload cfg in
  let nd = cfg.c_domains in
  (* Canonical registry: deterministic instruments only (see .mli). *)
  let reg = Tel.Registry.create () in
  let per name help =
    Array.init nd (fun d ->
        Tel.Registry.counter reg
          ~labels:[ ("domain", string_of_int d) ]
          ~help name)
  in
  let requests = per "tm_serve_requests_total" "Requests generated" in
  let admitted = per "tm_serve_admitted_total" "Requests admitted" in
  let shed = per "tm_serve_shed_total" "Requests shed by admission" in
  let mutators = per "tm_serve_mutators_total" "Admitted mutating requests" in
  (* Indexed by [Workload.shape_kind]. *)
  let kinds = Array.of_list Workload.kinds in
  let by_kind =
    Array.map
      (fun k ->
        Tel.Registry.counter reg
          ~labels:[ ("kind", k) ]
          ~help:"Admitted requests by kind" "tm_serve_admitted_kind_total")
      kinds
  in
  (* Measured, non-canonical: bare instruments, never scraped. *)
  let lat = Array.map (fun _ -> Tel.Instrument.histogram ()) kinds in
  (* The open-loop recorder is registry-free on purpose: its samples are
     wall-clock measurements, and the canonical scrape must not see
     them. *)
  let recorder =
    Option.map
      (fun a ->
        Tel.Latency_recorder.create ~interval_ns:(Arrival.period_ns a)
          ~domains:nd ())
      cfg.c_arrival
  in
  let scrape ts =
    match on_sample with
    | Some f -> f (Tel.Registry.scrape reg ~ts)
    | None -> ()
  in
  let commits0, aborts0 = Stm.stats () in
  scrape 0;
  (* Start barrier: the arrival epoch opens when every executor is
     spawned and ready, so domain-spawn latency (milliseconds) does not
     masquerade as queueing delay in the open-loop measurements. *)
  let ready = Atomic.make 0 in
  let go = Atomic.make 0 in
  let worker d () =
    (* Per-domain request state, reused for every request: the
       generator, the op buffer and the transaction body over it. *)
    let g = Prng.create 0 in
    let buf = Store.buf_create ~capacity:Workload.max_ops in
    let body tx = Store.exec_buf store tx buf in
    (* Open-loop pacing state: a per-domain arrival cursor walked in
       global-index order (the schedule is a pure function of the index,
       so every domain count derives the same arrival times). *)
    let cur = Option.map Arrival.cursor cfg.c_arrival in
    let g_prev = ref (-1) in
    Atomic.incr ready;
    while Atomic.get go = 0 do
      Domain.cpu_relax ()
    done;
    let t0n = Atomic.get go in
    admit_loop cfg wl g ~domain:d (fun client index shape adm ->
        (* Fill before pacing, so an open loop generates while it waits
           for the arrival instead of after it. *)
        if adm then Workload.fill wl g shape buf;
        let sched =
          match cur with
          | None -> t0n
          | Some c ->
              let gi = (index * cfg.c_clients) + client in
              Arrival.skip c (gi - !g_prev - 1);
              g_prev := gi;
              let at = t0n + Arrival.next c in
              (* dispatch no earlier than the scheduled arrival *)
              while now_ns () < at do
                Domain.cpu_relax ()
              done;
              at
        in
        Tel.Instrument.incr requests.(d);
        if not adm then Tel.Instrument.incr shed.(d)
        else begin
          let kind = Workload.shape_kind shape in
          Tel.Instrument.incr admitted.(d);
          Tel.Instrument.incr by_kind.(kind);
          if Workload.shape_mutates shape then
            Tel.Instrument.incr mutators.(d);
          (match recorder with
          | Some r -> Tel.Latency_recorder.mark r d ~sched
          | None -> ());
          let start = now_ns () in
          Stm.atomically_tx body;
          let finish = now_ns () in
          Tel.Instrument.observe lat.(kind) (finish - start);
          match recorder with
          | Some r -> Tel.Latency_recorder.complete r d ~start ~finish
          | None -> ()
        end)
  in
  let ds = List.init nd (fun d -> Domain.spawn (worker d)) in
  while Atomic.get ready < nd do
    Domain.cpu_relax ()
  done;
  let t0 = Unix.gettimeofday () in
  Atomic.set go (now_ns ());
  List.iter Domain.join ds;
  let wall = Unix.gettimeofday () -. t0 in
  scrape (total_requests cfg);
  let commits1, aborts1 = Stm.stats () in
  let final = Store.dump store in
  let counter_plane = ref 0 in
  Array.iteri
    (fun k v -> if k land 1 = 1 then counter_plane := !counter_plane + v)
    final;
  let v a d = Tel.Instrument.value a.(d) in
  let sum a = Array.fold_left (fun acc c -> acc + Tel.Instrument.value c) 0 a in
  let mut_total = sum mutators in
  {
    s_config = cfg;
    s_requests = sum requests;
    s_admitted = sum admitted;
    s_shed = sum shed;
    s_batched = 0;
    s_mutators = mut_total;
    s_by_kind =
      List.mapi
        (fun i k -> (k, Tel.Instrument.value by_kind.(i)))
        Workload.kinds;
    s_per_domain =
      Array.init nd (fun d ->
          {
            d_requests = v requests d;
            d_admitted = v admitted d;
            d_shed = v shed d;
            d_mutators = v mutators d;
          });
    s_journal_ok =
      (not cfg.c_journal) || Store.journal_value store = mut_total;
    s_conserved = !counter_plane = 0;
    s_final = final;
    s_wall = wall;
    s_commits = commits1 - commits0;
    s_aborts = aborts1 - aborts0;
    s_flushes = 0;
    s_latency =
      List.mapi
        (fun i k ->
          { l_kind = k; l_snap = Tel.Instrument.hist_snapshot lat.(i) })
        Workload.kinds;
    s_open =
      Option.map
        (fun r -> Tel.Latency_recorder.summary r ~now:(now_ns ()))
        recorder;
  }

let to_json o =
  let cfg = o.s_config in
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"subsystem\":\"tmserve\",\"profile\":%S,\"algo\":%S,\"seed\":%d,\"domains\":%d,\"clients\":%d,\"ops_per_client\":%d,\"keys\":%d,\"stripes\":%d,\"journal\":%b,\"queue_cap\":%d,\"arrival\":%s,\"requests\":%d,\"admitted\":%d,\"shed\":%d,\"mutators\":%d,\"journal_ok\":%b,\"conserved\":%b,\"by_kind\":{"
       (Workload.profile_name cfg.c_profile)
       (Stm.Algo.name cfg.c_algo) cfg.c_seed cfg.c_domains cfg.c_clients
       cfg.c_ops cfg.c_keys cfg.c_stripes cfg.c_journal
       cfg.c_queue_cap
       (match cfg.c_arrival with
       | None -> "{\"kind\":\"closed\"}"
       | Some a ->
           Fmt.str "{\"kind\":%S,\"rate\":%.1f}"
             (Arrival.kind_name (Arrival.kind a))
             (Arrival.rate a))
       o.s_requests o.s_admitted o.s_shed o.s_mutators o.s_journal_ok
       o.s_conserved);
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b (Fmt.str "%S:%d" k n))
    o.s_by_kind;
  Buffer.add_string b "},\"per_domain\":[";
  Array.iteri
    (fun d pd ->
      if d > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"domain\":%d,\"requests\":%d,\"admitted\":%d,\"shed\":%d,\"mutators\":%d}"
           d pd.d_requests pd.d_admitted pd.d_shed pd.d_mutators))
    o.s_per_domain;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_summary ppf o =
  let cfg = o.s_config in
  Fmt.pf ppf
    "@[<v>tmserve profile=%s algo=%s domains=%d seed=%d clients=%d \
     ops/client=%d journal=%b@,"
    (Workload.profile_name cfg.c_profile)
    (Stm.Algo.name cfg.c_algo) cfg.c_domains cfg.c_seed cfg.c_clients
    cfg.c_ops cfg.c_journal;
  Fmt.pf ppf "requests %d: admitted %d, shed %d (mutators %d)@,"
    o.s_requests o.s_admitted o.s_shed o.s_mutators;
  List.iter
    (fun (k, n) -> if n > 0 then Fmt.pf ppf "  admitted %-4s %d@," k n)
    o.s_by_kind;
  Fmt.pf ppf
    "measured: wall %.3fs, %.0f adm/s, commits %d, aborts %d@,"
    o.s_wall
    (float_of_int o.s_admitted /. Float.max 1e-9 o.s_wall)
    o.s_commits o.s_aborts;
  List.iter
    (fun l ->
      if l.l_snap.Tel.Instrument.count > 0 then
        Fmt.pf ppf "  latency %-4s %a@," l.l_kind Tel.Instrument.pp_hsnap
          l.l_snap)
    o.s_latency;
  (match (o.s_config.c_arrival, o.s_open) with
  | Some a, Some y ->
      Fmt.pf ppf "arrival %s rate %.0f req/s (open loop)@,%a@,"
        (Arrival.kind_name (Arrival.kind a))
        (Arrival.rate a) Tel.Latency_recorder.pp_summary y
  | _ -> ());
  Fmt.pf ppf "journal %s, counter plane %s@]"
    (if o.s_journal_ok then "ok" else "MISMATCH")
    (if o.s_conserved then "conserved" else "VIOLATED")

(* {2 Chaos against the serving path} *)

(* A chaos executor cycles its client rotation forever (a starving
   domain never finishes a fixed quota), with admission off and the
   journal marked on {e every} request: even a pure get writes the
   journal, the t-variable every domain shares, so the runner's
   per-algorithm expectations carry over to the serving path
   verbatim. *)
let chaos_workload cfg =
  let make ~domains =
    let store =
      Store.create ~stripes:cfg.c_stripes ~journal:true ~keys:cfg.c_keys ()
    in
    let wl = workload cfg in
    let clients = max cfg.c_clients domains in
    fun d ->
      let g = Prng.create 0 in
      let buf = Store.buf_create ~capacity:Workload.max_ops in
      let client = ref d and index = ref 0 and mutates = ref false in
      (* [exec_buf] marks the journal for a mutator; mark a pure read
         here, so every request marks it once. *)
      let body tx =
        Store.exec_buf store tx buf;
        if not !mutates then Store.journal_mark store 1
      in
      fun () ->
        let shape = Workload.shape wl g ~client:!client ~index:!index in
        Workload.fill wl g shape buf;
        mutates := Workload.shape_mutates shape;
        client := !client + domains;
        if !client >= clients then begin
          client := d;
          index := (!index + 1) mod cfg.c_ops
        end;
        body
  in
  {
    Tm_chaos.Runner.w_name =
      Fmt.str "serve[%s]" (Workload.profile_name cfg.c_profile);
    w_make = make;
  }
