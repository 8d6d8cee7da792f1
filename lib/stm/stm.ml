(* The public STM facade over the pluggable algorithm zoo.

   Algorithm-independent machinery lives in [Stm_core] (t-variables,
   the observation seam [Obs]); the four cores live in [Stm_tl2],
   [Stm_glock], [Stm_dstm] and [Stm_norec].  This module owns what the
   cores share behaviourally: the per-domain current-transaction slot,
   the retry loop with randomized exponential backoff, the
   attempt-lifecycle sites ([Begin], [Commit], [Abort], [Retry],
   [Exception], [Backoff]) and the per-domain commit/abort counters —
   so every algorithm gets identical observability for free.  The
   built-in parties of the seam — the trace recorder, the chaos plan
   and the blame sink — are subscribers defined here. *)

module Tev = Tm_trace.Trace_event

module Obs = struct
  include Stm_core.Obs

  let subscribe ?clock ?stamp ?(sites = sites) on =
    Stm_core.Obs.subscribe ?clock ?stamp (Observer { sites; on })
  let is_armed () = Atomic.get armed <> 0
end

type 'a tvar = 'a Stm_core.tvar

exception Retry = Stm_core.Retry

let tvar = Stm_core.tvar

(* Runtime tracing: a ring recorder subscribed to the seam.  Each domain
   writes into its own fixed-size ring (single-writer, no lock on the
   record path) registered in a global list so [events] can collect
   them afterwards.  Timestamps come from a global emission sequence —
   they give a total order of recorded events, not wall time. *)
module Trace = struct
  type mode = Off | Null | Rings of int

  let sub = Obs.slot ()
  let mode = Atomic.make Off
  let generation = Atomic.make 0
  let seq = Atomic.make 0
  let emitted_count = Atomic.make 0
  let registry_mu = Mutex.create ()
  let registry : Tm_trace.Ring.t list ref = ref []

  let slot : (int * Tm_trace.Ring.t) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let default_capacity = 4096

  (* The per-domain ring is cached in DLS together with the generation it
     belongs to, so a stale ring from a previous [start] is never written
     into the current session. *)
  let ring_for_domain gen =
    let r = Domain.DLS.get slot in
    match !r with
    | Some (g, ring) when g = gen -> Some ring
    | _ -> (
        match Atomic.get mode with
        | Rings cap ->
            let ring = Tm_trace.Ring.create ~capacity:cap in
            let registered =
              Mutex.protect registry_mu (fun () ->
                  if Atomic.get generation = gen then begin
                    registry := ring :: !registry;
                    true
                  end
                  else false)
            in
            if registered then begin
              r := Some (gen, ring);
              Some ring
            end
            else None
        | Off | Null -> None)

  let record cat name phase args =
    let ts = Atomic.fetch_and_add seq 1 in
    let tid = (Domain.self () :> int) in
    let e = { Tev.ts; pid = 0; tid; cat; name; phase; args } in
    Atomic.incr emitted_count;
    match Atomic.get mode with
    | Off | Null -> ()
    | Rings _ -> (
        match ring_for_domain (Atomic.get generation) with
        | Some ring -> Tm_trace.Ring.add ring e
        | None -> ())

  let tv id = ("tvar", Tev.Int id)
  let end_attempt outcome = record Tev.Txn "attempt" Tev.Span_end [ ("outcome", Tev.Str outcome) ]

  (* The trace view of the seam: the attempt spans, backoff waits and
     the lock/publish protocol the trace lints check. *)
  let observe site tvar arg =
    match site with
    | Obs.Begin -> record Tev.Txn "attempt" Tev.Span_begin [ ("attempt", Tev.Int arg) ]
    | Obs.Commit -> end_attempt "commit"
    | Obs.Abort -> end_attempt "conflict"
    | Obs.Retry -> end_attempt "retry"
    | Obs.Exception -> end_attempt "exception"
    | Obs.Backoff ->
        record Tev.Backoff "wait" Tev.Instant
          [ ("attempt", Tev.Int tvar); ("spins", Tev.Int arg) ]
    | Obs.Locked -> record Tev.Lock "acquire" Tev.Instant [ tv tvar; ("order", Tev.Int arg) ]
    | Obs.Lock_busy -> record Tev.Lock "busy" Tev.Instant [ tv tvar ]
    | Obs.Released -> record Tev.Lock "release" Tev.Instant [ tv tvar ]
    | Obs.Published ->
        (* publishing a t-variable also releases its lock *)
        record Tev.Txn "publish" Tev.Instant [ tv tvar ];
        record Tev.Lock "release" Tev.Instant [ tv tvar ]
    | Obs.Stolen -> record Tev.Txn "steal" Tev.Instant [ tv tvar ]
    | Obs.Validation -> record Tev.Validation "read-invalid" Tev.Instant [ tv tvar ]
    | _ -> ()

  let start_mode m =
    Obs.vacate sub;
    Mutex.protect registry_mu (fun () ->
        registry := [];
        Atomic.incr generation;
        Atomic.set seq 0;
        Atomic.set emitted_count 0;
        Atomic.set mode m);
    Obs.(
      fill sub
        (subscribe observe
           ~sites:
             [ Begin; Commit; Abort; Retry; Exception; Backoff; Locked;
               Lock_busy; Released; Published; Stolen; Validation ]))

  let start ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Stm.Trace.start: capacity must be positive";
    start_mode (Rings capacity)

  let start_null () = start_mode Null

  let stop () =
    Obs.vacate sub;
    Atomic.set mode Off

  let is_on () = Obs.filled sub

  let events () =
    let evs =
      Mutex.protect registry_mu (fun () ->
          List.concat_map Tm_trace.Ring.to_list !registry)
    in
    List.sort (fun (a : Tev.t) b -> Int.compare a.ts b.ts) evs

  let dropped () =
    Mutex.protect registry_mu (fun () ->
        List.fold_left (fun acc r -> acc + Tm_trace.Ring.dropped r) 0 !registry)

  let emitted () = Atomic.get emitted_count
end

(* Deterministic fault injection: the seam's one decider.  Which site
   decides what is algorithm-specific; see [Algo.sites]. *)
module Chaos = struct
  type point = Obs.site
  type action = Obs.action = Proceed | Abort | Stall of int | Crash

  exception Crashed = Obs.Crashed

  let sub = Obs.slot ()
  let install h = Obs.fill sub (Stm_core.Obs.subscribe (Decider h))
  let uninstall () = Obs.vacate sub
  let is_armed () = Obs.filled sub
end

(* Blame attribution: an observer of the conflict sites that names
   victim and aggressor, plus a progress tick per commit.  Subscribing
   with [~stamp:true] makes the cores stamp ownership words, so the
   aggressor of a conflict can be named. *)
module Blame = struct
  type cause = Read_conflict | Lock_busy | Validation | Stolen | Wait_budget

  type event = {
    b_victim : int;
    b_aggressor : int;
    b_tvar : int;
    b_cause : cause;
  }

  type sink = { on_event : event -> unit; on_progress : int -> unit }

  let cause_label = function
    | Read_conflict -> "read-conflict"
    | Lock_busy -> "lock-busy"
    | Validation -> "validation"
    | Stolen -> "stolen"
    | Wait_budget -> "wait-budget"

  let causes = [ Read_conflict; Lock_busy; Validation; Stolen; Wait_budget ]
  let set_self = Obs.set_self
  let self = Obs.self

  (* The victim reports its own impediment, blaming the site's
     argument; a steal is reported by the aggressor, naming the victim
     in its argument. *)
  let report s cause tvar arg =
    s.on_event
      { b_victim = self (); b_aggressor = arg; b_tvar = tvar; b_cause = cause }

  let observe s =
   fun site tvar arg ->
    match site with
    | Obs.Read_conflict -> report s Read_conflict tvar arg
    | Obs.Lock_busy -> report s Lock_busy tvar arg
    | Obs.Validation -> report s Validation tvar arg
    | Obs.Wait_budget -> report s Wait_budget tvar arg
    | Obs.Stolen ->
        s.on_event
          { b_victim = arg; b_aggressor = self (); b_tvar = tvar; b_cause = Stolen }
    | Obs.Commit -> s.on_progress (self ())
    | _ -> ()

  let sub = Obs.slot ()
  let install s =
    Obs.fill sub
      (Obs.subscribe ~stamp:true
         ~sites:Obs.[ Read_conflict; Lock_busy; Validation; Wait_budget; Stolen; Commit ]
         (observe s))
  let uninstall () = Obs.vacate sub
  let is_armed () = Obs.filled sub
end

module Algo = struct
  type t = Tl2 | Global_lock | Dstm | Norec

  let all = [ Tl2; Global_lock; Dstm; Norec ]

  let name = function
    | Tl2 -> "tl2"
    | Global_lock -> "global-lock"
    | Dstm -> "dstm"
    | Norec -> "norec"

  let of_string s =
    match String.lowercase_ascii s with
    | "tl2" -> Ok Tl2
    | "global-lock" | "glock" -> Ok Global_lock
    | "dstm" -> Ok Dstm
    | "norec" -> Ok Norec
    | _ ->
        Error
          (Fmt.str "unknown algorithm %S (try: %s)" s
             (String.concat ", " (List.map name all)))

  let progress_label = function
    | Tl2 -> "progressive"
    | Global_lock -> "blocking"
    | Dstm -> "obstruction-free"
    | Norec -> "commit-serialized"

  let describe = function
    | Tl2 ->
        "TL2: global version clock, per-tvar versioned locks, commit-time \
         validation (progressive)"
    | Global_lock ->
        "global-lock: one serializer lock per transaction, no aborts, no \
         parallelism (blocking)"
    | Dstm ->
        "DSTM: revocable ownership records with abort-others stealing \
         (obstruction-free)"
    | Norec ->
        "NOrec: value-based validation under a single sequence lock \
         (commit-serialized)"

  (* Which sites each core reaches — the per-algorithm announcement
     that keeps telemetry labels, chaos plans and blame attribution
     truthful.  [Begin], [Commit], [Abort], [Retry], [Exception] and
     [Backoff] come from the facade's retry loop for every core.  The
     absences are structural: the global-lock serializer validates
     nothing; NOrec and DSTM acquire no per-location locks (no
     [Lock_time]) and NOrec decides no [Lock_acquire]; only the
     stealing DSTM core reaches [Stolen]; the serialized cores turn
     every conflict into [Wait_budget] behind their single lock (NOrec
     also revalidates by value); TL2 is the only core with
     per-location [Read_conflict]/[Lock_busy].  Global-lock decides
     [Read] only once the serializer is held (an in-transaction crash
     deterministically strands it) and [Lock_acquire] while holding
     nothing (so a starving peer's op clock keeps ticking). *)
  let sites = function
    | Tl2 ->
        [
          Obs.Begin; Obs.Read; Obs.Read_conflict; Obs.Lock_acquire;
          Obs.Locked; Obs.Lock_busy; Obs.Released; Obs.Lock_time;
          Obs.Validate; Obs.Validation; Obs.Validate_time; Obs.Pre_commit;
          Obs.Published; Obs.Publish_time; Obs.Post_commit; Obs.Commit;
          Obs.Abort; Obs.Retry; Obs.Exception; Obs.Backoff;
        ]
    | Global_lock ->
        [
          Obs.Begin; Obs.Read; Obs.Lock_acquire; Obs.Locked; Obs.Lock_time;
          Obs.Wait_budget; Obs.Pre_commit; Obs.Published; Obs.Publish_time;
          Obs.Post_commit; Obs.Commit; Obs.Abort; Obs.Retry; Obs.Exception;
          Obs.Backoff;
        ]
    | Dstm ->
        [
          Obs.Begin; Obs.Read; Obs.Lock_acquire; Obs.Validate;
          Obs.Validation; Obs.Validate_time; Obs.Stolen; Obs.Pre_commit;
          Obs.Publish_time; Obs.Post_commit; Obs.Commit; Obs.Abort;
          Obs.Retry; Obs.Exception; Obs.Backoff;
        ]
    | Norec ->
        [
          Obs.Begin; Obs.Read; Obs.Locked; Obs.Validate; Obs.Validation;
          Obs.Validate_time; Obs.Wait_budget; Obs.Pre_commit; Obs.Published;
          Obs.Publish_time; Obs.Post_commit; Obs.Commit; Obs.Abort;
          Obs.Retry; Obs.Exception; Obs.Backoff;
        ]
end

let core_of : Algo.t -> (module Stm_core.S) = function
  | Algo.Tl2 -> (module Stm_tl2)
  | Algo.Global_lock -> (module Stm_glock)
  | Algo.Dstm -> (module Stm_dstm)
  | Algo.Norec -> (module Stm_norec)

let selected_algo = Atomic.make Algo.Tl2
let selected : (module Stm_core.S) Atomic.t = Atomic.make (core_of Algo.Tl2)

let set_algo a =
  Atomic.set selected_algo a;
  Atomic.set selected (core_of a)

let algo () = Atomic.get selected_algo

let with_algo a f =
  let prev = algo () in
  set_algo a;
  Fun.protect ~finally:(fun () -> set_algo prev) f

(* Per-domain facade state: the current-transaction slot and the
   domain's commit/abort counters.  Only the owning domain writes a
   record, so counting costs no shared cache line; [stats] sums the
   records of every domain that ever ran a transaction. *)
type dom = {
  mutable cur : Stm_core.packed;
  mutable commits : int;
  mutable aborts : int;
}

let doms : dom list Atomic.t = Atomic.make []

let rec register d =
  let l = Atomic.get doms in
  if not (Atomic.compare_and_set doms l (d :: l)) then register d

let dom_key : dom Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let d = { cur = Stm_core.Idle; commits = 0; aborts = 0 } in
      register d;
      d)

let in_transaction () = (Domain.DLS.get dom_key).cur != Stm_core.Idle

let read (type a) (tv : a tvar) : a =
  match (Domain.DLS.get dom_key).cur with
  | Stm_core.P ((module C), t) -> C.read t tv
  | Stm_core.Idle ->
      let (module C) = Atomic.get selected in
      C.direct_read tv

let write (type a) (tv : a tvar) (x : a) : unit =
  match (Domain.DLS.get dom_key).cur with
  | Stm_core.P ((module C), t) -> C.write t tv x
  | Stm_core.Idle -> invalid_arg "Stm.write outside a transaction"

let retry () = raise Retry

(* Randomized exponential backoff.  [seed] is the domain's LCG state;
   the next state is returned so the retry loop can thread it as an
   int.  The [Backoff] site has no t-variable: it carries the attempt
   exponent in the t-variable slot and the spin count as argument. *)
let backoff attempts seed =
  let bound = 1 lsl min attempts 10 in
  let spins = 1 + ((seed * 1103515245) + 12345) land 0x3FFFFFFF in
  let n_spins = spins mod bound in
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.emit m Obs.Backoff attempts n_spins;
  for _ = 1 to n_spins do
    Domain.cpu_relax ()
  done;
  spins

(* The retry loop: attempt [n] of [f] under core [C].  A top-level
   function so an attempt allocates nothing of its own; [seed] is the
   backoff state.  The armed word is loaded once per attempt: its
   lifecycle sites all use that load, and the outcome sites carry the
   attempt's duration. *)
let rec attempt :
    type a. (module Stm_core.S) -> dom -> (unit -> a) -> int -> int -> a =
 fun (module C) d f n seed ->
  let m = Atomic.get Obs.armed in
  let t0 = if m land Obs.begins <> 0 then Obs.start m Obs.Begin n else 0 in
  let txn = C.begin_ () in
  d.cur <- Stm_core.P ((module C), txn);
  match f () with
  | result -> (
      match C.commit txn with
      | () ->
          d.cur <- Stm_core.Idle;
          d.commits <- d.commits + 1;
          if m land Obs.observing <> 0 then Obs.finish m Obs.Commit t0;
          result
      | exception Stm_core.Conflict ->
          d.cur <- Stm_core.Idle;
          C.abort_cleanup txn;
          d.aborts <- d.aborts + 1;
          if m land Obs.observing <> 0 then Obs.finish m Obs.Abort t0;
          attempt (module C) d f (n + 1) (backoff n seed)
      | exception (Obs.Crashed as e) ->
          (* A crashed commit keeps everything it holds: no cleanup, and
             the attempt stays open — the domain is gone. *)
          d.cur <- Stm_core.Idle;
          raise e)
  | exception Stm_core.Conflict ->
      d.cur <- Stm_core.Idle;
      C.abort_cleanup txn;
      d.aborts <- d.aborts + 1;
      if m land Obs.observing <> 0 then Obs.finish m Obs.Abort t0;
      attempt (module C) d f (n + 1) (backoff n seed)
  | exception Retry ->
      d.cur <- Stm_core.Idle;
      C.abort_cleanup txn;
      d.aborts <- d.aborts + 1;
      if m land Obs.observing <> 0 then Obs.finish m Obs.Retry t0;
      attempt (module C) d f (n + 1) (backoff (n + 2) seed)
  | exception (Obs.Crashed as e) ->
      (* Crashed in the body: same no-cleanup contract. *)
      d.cur <- Stm_core.Idle;
      if m land Obs.observing <> 0 then Obs.finish m Obs.Exception t0;
      raise e
  | exception e ->
      d.cur <- Stm_core.Idle;
      C.abort_cleanup txn;
      if m land Obs.observing <> 0 then Obs.finish m Obs.Exception t0;
      raise e

let atomically f =
  let d = Domain.DLS.get dom_key in
  match d.cur with
  | Stm_core.P _ -> f () (* flat nesting: join the enclosing transaction *)
  | Stm_core.Idle -> attempt (Atomic.get selected) d f 0 (Domain.self () :> int)

let stats () =
  List.fold_left
    (fun (c, a) d -> (c + d.commits, a + d.aborts))
    (0, 0) (Atomic.get doms)

let recover () =
  (* A recovery point is also where stranded subscribers go: a harness
     that died between subscribing and unsubscribing must not leave a
     chaos plan, probe, blame sink or trace recorder armed across runs.
     [reset] is idempotent, so recovering twice (or after a clean
     teardown) is harmless. *)
  Obs.reset ();
  let (module C) = Atomic.get selected in
  C.recover ()
