(* In-memory spans of the traced replay.

   Spans live in preallocated parallel arrays, so recording one costs
   two clock reads and a few array stores and allocates nothing inside
   the transactions it brackets.  Nothing is written until the run
   ends: then the store yields per-name self times and a Chrome
   trace_event list ({!Tm_trace.Export}). *)

module Ev = Tm_trace.Trace_event

(* A span's self time: its duration minus the part of it that the union
   of its children's intervals covers.  Children are clipped to the
   parent, and overlapping children count once. *)
let self_time ~start ~stop children =
  let clipped =
    List.filter_map
      (fun (s, e) ->
        let s = max s start and e = min e stop in
        if e > s then Some (s, e) else None)
      children
  in
  let sorted = List.sort compare clipped in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (s, e) ->
        let s = max s reach in
        if e > s then (acc + (e - s), e) else (acc, reach))
      (0, start) sorted
  in
  stop - start - covered

type t = {
  names : string array;  (* span name by id *)
  mutable n : int;
  name : int array;
  parent : int array;  (* -1 for a root *)
  key : int array;  (* the request's global index *)
  start : int array;
  stop : int array;
}

let create ~names ~capacity =
  let z () = Array.make capacity 0 in
  {
    names;
    n = 0;
    name = z ();
    parent = z ();
    key = z ();
    start = z ();
    stop = z ();
  }

let length t = t.n

(* Open a span; the caller keeps [length] below the capacity. *)
let open_ t ~name ~parent ~key ~start =
  let i = t.n in
  t.name.(i) <- name;
  t.parent.(i) <- parent;
  t.key.(i) <- key;
  t.start.(i) <- start;
  t.stop.(i) <- start;
  t.n <- i + 1;
  i

let close t i ~stop = t.stop.(i) <- stop

let self_times t =
  let kids = Array.make t.n [] in
  for i = 0 to t.n - 1 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- (t.start.(i), t.stop.(i)) :: kids.(p)
  done;
  Array.init t.n (fun i ->
      self_time ~start:t.start.(i) ~stop:t.stop.(i) kids.(i))

(* Mean self time per name, in name-id order. *)
let mean_self t =
  let self = self_times t in
  let k = Array.length t.names in
  let sum = Array.make k 0 and cnt = Array.make k 0 in
  for i = 0 to t.n - 1 do
    let nm = t.name.(i) in
    sum.(nm) <- sum.(nm) + self.(i);
    cnt.(nm) <- cnt.(nm) + 1
  done;
  List.init k (fun nm ->
      let mean =
        if cnt.(nm) = 0 then 0.0
        else float_of_int sum.(nm) /. float_of_int cnt.(nm)
      in
      (t.names.(nm), mean))

(* Chrome begin/end pairs for the spans of requests with [key < keys],
   on one lane, timestamps in ns relative to the first span.  Spans are
   recorded parent-first, so a walk in id order with a stack of open
   ancestors closes each span before its next sibling opens. *)
let to_events ~category t ~keys =
  let t0 = if t.n = 0 then 0 else t.start.(0) in
  let out = ref [] and stack = ref [] in
  let emit_end i =
    let nm = t.names.(t.name.(i)) in
    out := Ev.span_end ~ts:(t.stop.(i) - t0) ~tid:0 (category nm) nm [] :: !out
  in
  let rec close_until p =
    match !stack with
    | top :: rest when top <> p ->
        emit_end top;
        stack := rest;
        close_until p
    | _ -> ()
  in
  for i = 0 to t.n - 1 do
    if t.key.(i) < keys then begin
      close_until t.parent.(i);
      let nm = t.names.(t.name.(i)) in
      out :=
        Ev.span_begin ~ts:(t.start.(i) - t0) ~tid:0 (category nm) nm
          [ ("request", Ev.Int t.key.(i)) ]
        :: !out;
      stack := i :: !stack
    end
  done;
  close_until (-1);
  List.rev !out
