(* The public STM facade over the pluggable algorithm zoo.

   Algorithm-independent machinery lives in [Stm_core] (t-variables,
   the Trace/Chaos/Tel seams); the four cores live in [Stm_tl2],
   [Stm_glock], [Stm_dstm] and [Stm_norec].  This module owns what the
   cores share behaviourally: the per-domain current-transaction slot,
   the retry loop with randomized exponential backoff, trace attempt
   spans, Tel Begin/Commit/Abort accounting and the per-domain
   commit/abort counters — so every algorithm gets identical
   observability for free. *)

module Tev = Tm_trace.Trace_event
module Trace = Stm_core.Trace
module Chaos = Stm_core.Chaos
module Tel = Stm_core.Tel
module Blame = Stm_core.Blame

type 'a tvar = 'a Stm_core.tvar

exception Retry = Stm_core.Retry

let tvar = Stm_core.tvar

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

  (* Which Tel phases each core can emit — the per-algorithm phase
     mapping that keeps telemetry histogram labels truthful.  Begin /
     Read / Commit / Abort are universal (Begin, Commit and Abort come
     from the facade's retry loop); the commit-internal phases differ:
     the global-lock serializer validates nothing, NOrec and DSTM
     acquire no per-location locks. *)
  let tel_phases = function
    | Tl2 ->
        [
          Tel.Begin;
          Tel.Read;
          Tel.Lock;
          Tel.Validate;
          Tel.Publish;
          Tel.Commit;
          Tel.Abort;
        ]
    | Global_lock ->
        [ Tel.Begin; Tel.Read; Tel.Lock; Tel.Publish; Tel.Commit; Tel.Abort ]
    | Dstm | Norec ->
        [
          Tel.Begin; Tel.Read; Tel.Validate; Tel.Publish; Tel.Commit; Tel.Abort;
        ]

  (* Which Chaos points each core fires (same truthfulness contract).
     Notably: global-lock fires [Read] only after the serializer is
     held (an in-transaction crash deterministically strands it) and
     fires [Lock_acquire] while holding nothing (so a starving peer's
     op clock keeps ticking); NOrec never fires [Lock_acquire]. *)
  let chaos_points = function
    | Tl2 | Dstm ->
        [
          Chaos.Read;
          Chaos.Validate;
          Chaos.Lock_acquire;
          Chaos.Pre_commit;
          Chaos.Post_commit;
        ]
    | Global_lock ->
        [ Chaos.Read; Chaos.Lock_acquire; Chaos.Pre_commit; Chaos.Post_commit ]
    | Norec ->
        [ Chaos.Read; Chaos.Validate; Chaos.Pre_commit; Chaos.Post_commit ]

  (* Which Blame causes each core can emit (same truthfulness
     contract).  The absences are structural: only the stealing DSTM
     core can emit [Stolen]; the serialized cores convert every
     conflict into spin-budget exhaustion behind their single lock;
     NOrec additionally revalidates by value ([Validation]); TL2 is
     the only core with per-location read/lock conflicts. *)
  let blame_causes = function
    | Tl2 -> [ Blame.Read_conflict; Blame.Lock_busy; Blame.Validation ]
    | Global_lock -> [ Blame.Wait_budget ]
    | Dstm -> [ Blame.Validation; Blame.Stolen ]
    | Norec -> [ Blame.Validation; Blame.Wait_budget ]
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
   int. *)
let backoff attempts seed =
  let bound = 1 lsl min attempts 10 in
  let spins = 1 + ((seed * 1103515245) + 12345) land 0x3FFFFFFF in
  let n_spins = spins mod bound in
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Backoff "wait" Tev.Instant
      [ ("attempt", Tev.Int attempts); ("spins", Tev.Int n_spins) ];
  for _ = 1 to n_spins do
    Domain.cpu_relax ()
  done;
  spins

let end_attempt outcome =
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Txn "attempt" Tev.Span_end [ ("outcome", Tev.Str outcome) ]

(* The retry loop: attempt [n] of [f] under core [C].  A top-level
   function so an attempt allocates nothing of its own; [seed] is the
   backoff state. *)
let rec attempt :
    type a. (module Stm_core.S) -> dom -> (unit -> a) -> int -> int -> a =
 fun (module C) d f n seed ->
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Txn "attempt" Tev.Span_begin [ ("attempt", Tev.Int n) ];
  let tel = Atomic.get Tel.armed in
  let tp = if tel then Atomic.get Tel.probe else Tel.null_probe in
  if tel then tp.Tel.count Tel.Begin;
  let t0 = if tel then tp.Tel.now () else 0 in
  let txn = C.begin_ () in
  d.cur <- Stm_core.P ((module C), txn);
  match f () with
  | result -> (
      match C.commit txn with
      | () ->
          d.cur <- Stm_core.Idle;
          d.commits <- d.commits + 1;
          Blame.progress ();
          if tel then tp.Tel.observe Tel.Commit (tp.Tel.now () - t0);
          end_attempt "commit";
          result
      | exception Stm_core.Conflict ->
          d.cur <- Stm_core.Idle;
          C.abort_cleanup txn;
          d.aborts <- d.aborts + 1;
          if tel then tp.Tel.observe Tel.Abort (tp.Tel.now () - t0);
          end_attempt "conflict";
          attempt (module C) d f (n + 1) (backoff n seed)
      | exception (Chaos.Crashed as e) ->
          (* A crashed commit keeps everything it holds: no cleanup, and
             the attempt span stays open — the domain is gone. *)
          d.cur <- Stm_core.Idle;
          raise e)
  | exception Stm_core.Conflict ->
      d.cur <- Stm_core.Idle;
      C.abort_cleanup txn;
      d.aborts <- d.aborts + 1;
      if tel then tp.Tel.observe Tel.Abort (tp.Tel.now () - t0);
      end_attempt "conflict";
      attempt (module C) d f (n + 1) (backoff n seed)
  | exception Retry ->
      d.cur <- Stm_core.Idle;
      C.abort_cleanup txn;
      d.aborts <- d.aborts + 1;
      if tel then tp.Tel.observe Tel.Abort (tp.Tel.now () - t0);
      end_attempt "retry";
      attempt (module C) d f (n + 1) (backoff (n + 2) seed)
  | exception (Chaos.Crashed as e) ->
      (* Crashed in the body: same no-cleanup contract. *)
      d.cur <- Stm_core.Idle;
      end_attempt "exception";
      raise e
  | exception e ->
      d.cur <- Stm_core.Idle;
      C.abort_cleanup txn;
      end_attempt "exception";
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
  (* A recovery point is also where stranded observation handlers go:
     a harness that died between [install] and [uninstall] must not
     leave a chaos plan, telemetry probe or blame sink armed across
     runs.  All three uninstalls are idempotent, so recovering twice
     (or recovering after a clean teardown already disarmed them) is
     harmless. *)
  Chaos.uninstall ();
  Tel.uninstall ();
  Blame.uninstall ();
  let (module C) = Atomic.get selected in
  C.recover ()
