(** A real software transactional memory for OCaml 5 (multicore), with a
    pluggable algorithm zoo.

    Four algorithms run behind one interface (see {!Algo}): TL2 (the
    default — global version clock, per-t-variable versioned spinlocks,
    deferred updates, commit-time validation), a global-lock
    serializer, a DSTM-style obstruction-free TM (revocable ownership
    records with abort-others stealing) and NOrec (value-based
    validation under a single sequence lock).  All of them share the
    {!Obs} observation seam and the same transactional data-structure
    layer ([txn_*]).

    Consistently with the paper's impossibility result (no TM ensures
    opacity and local progress in a fault-prone system), no core makes
    a per-transaction progress guarantee: a transaction may be aborted
    and retried an unbounded number of times under contention.  What
    every core does ensure is opacity — every transaction, even one
    about to abort, sees a consistent snapshot.  Where they differ is
    exactly the paper's Section 3.2.3 liveness territory: which
    processes keep progressing when a peer crashes, stalls or turns
    parasitic (see [Tm_chaos] and the per-algorithm verdict matrix).

    Usage:
    {[
      let acc1 = Stm.tvar 100 and acc2 = Stm.tvar 0 in
      Stm.atomically (fun () ->
          let v = Stm.read acc1 in
          Stm.write acc1 (v - 10);
          Stm.write acc2 (Stm.read acc2 + 10))
    ]} *)

type 'a tvar

val tvar : 'a -> 'a tvar
(** A fresh transactional variable with the given initial value.  A
    t-variable belongs to the algorithm that first commits to it: do
    not carry t-variables across {!set_algo} switches (each core
    maintains its own side of the shared representation). *)

val atomically : (unit -> 'a) -> 'a
(** Run the function as a transaction under the currently selected
    algorithm: reads/writes of t-variables inside it are isolated and
    take effect atomically at commit.  On conflict the transaction is
    rolled back and re-executed (with randomized exponential backoff).
    Nesting is flattened: an [atomically] inside a transaction joins
    the enclosing one. *)

val read : 'a tvar -> 'a
(** Inside a transaction: a transactional read, validated against the
    transaction's snapshot (an inconsistent read aborts the attempt).
    Outside: an atomic snapshot read. *)

val write : 'a tvar -> 'a -> unit
(** Inside a transaction: a deferred transactional write.
    @raise Invalid_argument outside a transaction. *)

exception Retry
(** User-requested retry: {!retry} aborts the current attempt and re-runs
    the transaction from the start (after backoff).  The classic
    busy-waiting [retry] — there is no parking. *)

val retry : unit -> 'a

val in_transaction : unit -> bool

val stats : unit -> int * int
(** [(commits, aborts)] since program start, summed over all domains
    and algorithms.  Each domain counts into its own record; a sum read
    while other domains run may miss their latest increments. *)

val recover : unit -> unit
(** Release core-global lock state abandoned by crashed transactions of
    the {e currently selected} algorithm — the stranded global-lock
    serializer, NOrec's odd sequence lock.  For fault-injection
    harnesses tearing down a run after every domain is joined: a
    crashed transaction never releases anything itself ({!Chaos}), and
    the serialized cores' locks are process-global, so without recovery
    one crashed run would starve every later run of the same core in
    the process.  Only sound while no transaction of the algorithm is
    in flight; per-t-variable state (TL2 vlocks, DSTM locators) is
    instead recovered by dropping the crashed run's t-variables.

    [recover] also drops every {!Obs} subscription — the chaos plan,
    the blame sink, the trace recorder, telemetry probes: a harness
    that died between install and uninstall must not leave the seam
    armed across runs.  Dropping is idempotent, so [recover] is safe
    to call twice. *)

(** The observation seam: one armed word, one vocabulary of {!Obs.site}s,
    one subscriber registry.

    Off by default: every site of the hot path then costs a single
    atomic load of the armed word and nothing is constructed.  A
    subscribed observer sees every event — the site, a t-variable id
    (-1 when the site has none) and one int argument (0 when the site
    has none) — on the domain that reaches the site, so observers must
    be domain-safe and non-blocking.  Which sites a core reaches is
    {!Algo.sites}.  The built-in parties are subscribers too: the
    {!Trace} recorder, the {!Chaos} plan (the one party that decides
    rather than observes), the {!Blame} sink and [Tm_telemetry]'s
    [Stm_probe]; {!recover} drops them all in one place. *)
module Obs : sig
  type site = Stm_core.Obs.site =
    | Begin  (** an attempt starts; argument: the attempt number *)
    | Read
        (** before a transactional read that is not a read-own-write,
            and before it is validated; decision site *)
    | Read_conflict
        (** TL2: a read saw a locked or too-new t-variable; argument:
            the slot blamed (last lock holder / committed writer) *)
    | Lock_acquire  (** before a lock/ownership acquisition; decision site *)
    | Locked  (** a commit lock taken; argument: its acquisition order *)
    | Lock_busy
        (** TL2: a commit lock found taken; argument: the slot blamed *)
    | Released  (** a commit lock released without publishing *)
    | Lock_time
        (** argument: duration of commit lock acquisition (TL2: the
            write-set vlocks; global-lock: the serializer) *)
    | Validate  (** before read-set validation; decision site *)
    | Validation
        (** read-set (re)validation failed; argument: the slot blamed *)
    | Validate_time  (** argument: duration of commit-time validation *)
    | Stolen
        (** DSTM, reported by the aggressor: an ownership stolen, so
            the owner's commit is doomed; argument: the victim slot *)
    | Wait_budget
        (** spin budget exhausted behind a serialized lock; argument:
            the slot blamed (its last acquirer) *)
    | Pre_commit
        (** after validation, before publishing (held); decision site *)
    | Published  (** a t-variable published, its lock released with it *)
    | Publish_time  (** argument: duration of making the write set visible *)
    | Post_commit
        (** after the commit took effect (released); decision site —
            [Abort] here acts as [Proceed], there is nothing left to
            abort *)
    | Commit  (** argument: whole-attempt duration of a commit *)
    | Abort  (** a conflict abort; argument: whole-attempt duration *)
    | Retry  (** a user {!retry}; argument: whole-attempt duration *)
    | Exception  (** the body raised (or crashed) *)
    | Backoff
        (** the wait before a re-run; it has no t-variable: the
            t-variable slot carries the attempt exponent, the argument
            the spin count *)

  val sites : site list
  (** Every site, in declaration order. *)

  val site_label : site -> string
  (** ["begin"], ["read"], ["read-conflict"], ["lock-acquire"],
      ["locked"], ["lock-busy"], ["released"], ["lock-time"],
      ["validate"], ["validation"], ["validate-time"], ["stolen"],
      ["wait-budget"], ["pre-commit"], ["published"], ["publish-time"],
      ["post-commit"], ["commit"], ["abort"], ["retry"], ["exception"],
      ["backoff"]. *)

  type subscription = Stm_core.Obs.subscription

  val subscribe :
    ?clock:(unit -> int) ->
    ?stamp:bool ->
    ?sites:site list ->
    (site -> int -> int -> unit) ->
    subscription
  (** Subscribe an observer and arm the seam.  The observer is handed
      the events of [sites] (default: every site); a site no observer
      asked for costs its emitter one array load.  [clock] (monotone,
      in the subscriber's unit) becomes the seam's clock: durations are
      its deltas, and read 0 while no subscriber supplied one.
      [stamp] (default false) makes the cores stamp ownership words
      with the emitting domain's {!Blame.self} slot, so conflict sites
      can name the slot blamed; without it they name -1 or a stale
      slot. *)

  val unsubscribe : subscription -> unit
  (** Idempotent; disarms the seam once nothing is subscribed. *)

  val is_armed : unit -> bool
end

(** The algorithm zoo: which core {!atomically} runs. *)
module Algo : sig
  type t =
    | Tl2  (** the default: progressive, per-location versioned locks *)
    | Global_lock  (** one serializer lock; blocking *)
    | Dstm  (** obstruction-free ownership records, aggressive stealing *)
    | Norec  (** value-based validation under a single sequence lock *)

  val all : t list

  val name : t -> string
  (** ["tl2"], ["global-lock"], ["dstm"], ["norec"] — the [--algo]
      vocabulary. *)

  val of_string : string -> (t, string) result
  val describe : t -> string

  val progress_label : t -> string
  (** The Kuznetsov–Ravi progress family: ["progressive"],
      ["blocking"], ["obstruction-free"], ["commit-serialized"]. *)

  val sites : t -> Obs.site list
  (** The sites this core reaches, in {!Obs.sites} order — the
      announcement that keeps telemetry labels, chaos plans and blame
      attribution truthful.  Enforced both ways by tmstatic's
      seam-contract rule and at run time by the truthfulness test.
      Notable truths: NOrec and DSTM never reach [Lock_time] (no
      per-location lock-acquire phase), NOrec never decides at
      [Lock_acquire], the global-lock serializer never validates, only
      DSTM reaches [Stolen], only the serialized cores reach
      [Wait_budget], and only TL2 reaches [Read_conflict]/[Lock_busy].
      The global-lock core decides [Read] only with the serializer
      already held. *)
end

val set_algo : Algo.t -> unit
(** Select the algorithm used by subsequent transactions (initially
    {!Algo.Tl2}).  Not synchronized with in-flight transactions: switch
    only while no domain is inside {!atomically}. *)

val algo : unit -> Algo.t

val with_algo : Algo.t -> (unit -> 'a) -> 'a
(** [with_algo a f] runs [f] with [a] selected, restoring the previous
    selection afterwards (single-controller discipline; do not nest
    concurrently from several domains). *)

(** Runtime tracing: a ring recorder subscribed to {!Obs}.

    Off by default.  When on, each domain records into its own
    fixed-capacity ring buffer ({!Tm_trace.Ring}), so tracing a long
    run keeps only the most recent events per domain and never grows
    memory.  The recorder keeps the sites the trace lints read: attempt
    spans ([Begin] to [Commit]/[Abort]/[Retry]/[Exception]), backoff
    waits, the lock protocol ([Locked], [Lock_busy], [Released],
    [Published]), steals and failed validations.  Event timestamps are
    a global emission sequence number (a total order of recorded
    events), not wall-clock time. *)
module Trace : sig
  val start : ?capacity:int -> unit -> unit
  (** Subscribe the recorder into per-domain rings of [capacity] events
      (default 4096).  Discards events from any previous session. *)

  val start_null : unit -> unit
  (** Subscribe with a null sink: events are constructed and counted
      but not stored.  For measuring emission overhead. *)

  val stop : unit -> unit
  (** Unsubscribe.  Recorded events remain readable via {!events}. *)

  val is_on : unit -> bool

  val events : unit -> Tm_trace.Trace_event.t list
  (** Events retained across all domain rings, ordered by timestamp. *)

  val dropped : unit -> int
  (** Events overwritten in ring buffers (sum over domains). *)

  val emitted : unit -> int
  (** Events recorded since the last [start]/[start_null], including
      dropped and null-sunk ones. *)
end

(** Deterministic fault injection: the seam's one deciding party.

    An installed handler is consulted at the five decision sites of
    the hot path — [Read], [Lock_acquire], [Validate], [Pre_commit],
    [Post_commit] of {!Obs.site} — before the event is delivered to
    observers, and answers with an {!action}:

    - [Proceed] — no fault;
    - [Abort] — abort the current attempt as an ordinary conflict (it is
      counted, backed off and retried, and anything the attempt holds —
      commit vlocks, the serializer, the sequence lock, ownerships —
      is released or revoked first);
    - [Stall n] — spin for [n] {!Domain.cpu_relax} iterations, modelling
      a slow or descheduled process;
    - [Crash] — raise {!Crashed} out of {!atomically} {e without
      releasing} anything the domain holds.  Under the lock-based
      cores a [Crash] at [Pre_commit] leaves locks stranded forever —
      the paper's crashed-lock-holder adversary, under which
      conflicting peers starve; under the obstruction-free DSTM core
      the abandoned ownerships are simply stolen and peers progress.

    Which core decides at which site, and what is held there, is
    {!Algo.sites} (e.g. the global-lock core decides [Read] only with
    the serializer already held).

    Handlers run on the faulting domain and must be domain-safe.  This
    is the mechanism only; seeded fault plans, scenarios and empirical
    verdicts live in the [Tm_chaos] library. *)
module Chaos : sig
  type point = Obs.site
  (** Only the five decision sites are ever handed to a handler. *)

  type action = Stm_core.Obs.action =
    | Proceed
    | Abort
    | Stall of int
    | Crash

  exception Crashed
  (** Escapes {!atomically} on a [Crash] action; held locks stay held. *)

  val install : (point -> action) -> unit
  (** Subscribe a handler.  Replaces any previously installed handler. *)

  val uninstall : unit -> unit
  (** Unsubscribe (idempotent). *)

  val is_armed : unit -> bool
end

(** Blame attribution — who aborted (or is impeding) whom: an observer
    of the conflict sites of {!Obs}.

    Installing subscribes with ownership stamping on, so the cores
    record in per-t-variable owner words the slot that last locked or
    owned each t-variable; uninstalled, those words are never written.
    Arming therefore changes what is {e recorded}, never what the
    algorithms {e decide}.

    An installed sink sees one {!event} per conflict site reached —
    victim slot, aggressor slot, t-variable id, {!cause} (the site of
    the same name; see {!Obs.site} for who is blamed at each) — and one
    [on_progress] tick per successful commit (the progress watermark
    feed).  A [Stolen] event is reported from the {e aggressor}'s
    domain; every other cause by the victim.

    Identity is the {e plan slot} (0..domains-1) bound with
    {!set_self} by the harness that owns the run (the chaos runner
    binds its workers); unslotted domains report -1.  One live
    transaction per slot makes slot = transaction for attribution.
    Sinks run on the emitting domain and must be domain-safe and
    non-blocking; [tm_telemetry]'s [Blame_graph] is the intended
    implementation. *)
module Blame : sig
  type cause =
    | Read_conflict  (** TL2: read saw a locked or too-new t-variable *)
    | Lock_busy  (** TL2: commit-time write-set lock acquisition lost *)
    | Validation  (** read-set (re)validation failed *)
    | Stolen  (** DSTM: ownership stolen — victim's commit is doomed *)
    | Wait_budget  (** spin budget exhausted behind a serialized lock *)

  type event = {
    b_victim : int;  (** slot whose attempt is impeded (-1 unknown) *)
    b_aggressor : int;  (** slot held responsible (-1 unknown) *)
    b_tvar : int;  (** t-variable id the conflict was on (-1 none) *)
    b_cause : cause;
  }

  type sink = {
    on_event : event -> unit;
    on_progress : int -> unit;  (** a commit by the given slot *)
  }

  val install : sink -> unit
  (** Subscribe the sink.  Replaces any previously installed sink. *)

  val uninstall : unit -> unit
  (** Unsubscribe (idempotent). *)

  val is_armed : unit -> bool

  val cause_label : cause -> string
  (** ["read-conflict"], ["lock-busy"], ["validation"], ["stolen"],
      ["wait-budget"]. *)

  val causes : cause list
  (** Every cause, in label order — the stable axis of exported
      histograms. *)

  val set_self : int -> unit
  (** Bind the calling domain's plan slot (its blame identity). *)

  val self : unit -> int
end
