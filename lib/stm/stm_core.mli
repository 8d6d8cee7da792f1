(** Shared substrate of the real-domains STM algorithm zoo (internal).

    This module is the algorithm-independent half of [lib/stm]: the
    t-variable representation, the write log {!Wlog}, the observation
    seam {!Obs} and the core interface {!S} each algorithm implements.
    User code should go through the {!Stm} facade; the
    types here are exposed so the cores ([Stm_tl2], [Stm_glock],
    [Stm_dstm], [Stm_norec]) can share one t-variable type and so the
    facade can re-export the seam unchanged. *)

type univ = exn
(** The universal type: values of any ['a] are injected via a
    per-t-variable extensible-variant constructor (no [Obj]). *)

type locator = {
  l_status : int Atomic.t;
  l_old : univ;
  mutable l_new : univ;
  l_owner : int;
}
(** DSTM-style locator.  [l_status] is the owning transaction's status
    cell, shared across all its locators: 0 = active, 1 = committed,
    2 = aborted; transitions are monotone and terminal.  Only the DSTM
    core reads or writes locators.  [l_owner] is the installing
    domain's plan slot while an observer stamps ownership (-1 otherwise):
    it lets a stealer name the victim of its abort. *)

type handle = {
  h_id : int;
  h_vlock : int Atomic.t;
  h_owner : int Atomic.t;
  h_set : univ -> unit;
}
(** The type-erased face of a t-variable, built once by {!tvar}: its
    id, its versioned lock and owner word (the very atomics of the
    t-variable) and a setter for values injected by its [inj].  Logs
    store handles, so locking, validating and publishing need no
    per-access closure. *)

type 'a tvar = {
  id : int;
  content : 'a Atomic.t;
  vlock : int Atomic.t;
  locator : locator Atomic.t;
  owner : int Atomic.t;
      (** plan slot of the last lock holder / committed writer, written
          only while an observer stamps ownership (-1 = unknown) *)
  inj : 'a -> univ;
  proj : univ -> 'a;
      (** inverse of [inj]; only ever applied to this t-variable's own
          injections *)
  handle : handle;
}

val tvar : 'a -> 'a tvar
(** A fresh t-variable, coherent under every core: [content] and the
    initial (committed) locator both hold the initial value.  A
    t-variable must not be shared across algorithm switches: each core
    maintains its own side of the representation. *)

val root_status : int Atomic.t
(** The permanently-committed status cell shared by all initial
    locators. *)

exception Retry
(** User-requested retry; see [Stm.retry]. *)

exception Conflict
(** Internal: aborts the current attempt; caught by the facade's retry
    loop.  Cores also convert bounded-spin exhaustion behind a stranded
    lock into [Conflict] so starving domains stay observable. *)

(** The observation seam; see [Stm.Obs] for the user-facing contract
    and [Stm.Algo.sites] for which core reaches which site.

    A site loads {!Obs.armed} once and does nothing else while it reads
    0: [let m = Atomic.get Obs.armed in if m <> 0 then Obs.fire m ...].
    Everything that dispatches ({!Obs.emit}, {!Obs.fire},
    {!Obs.decide}, {!Obs.lap}, {!Obs.now}) is only called from such an
    armed branch and does not re-check the word. *)
module Obs : sig
  type site =
    | Begin
    | Read
    | Read_conflict
    | Lock_acquire
    | Locked
    | Lock_busy
    | Released
    | Lock_time
    | Validate
    | Validation
    | Validate_time
    | Stolen
    | Wait_budget
    | Pre_commit
    | Published
    | Publish_time
    | Post_commit
    | Commit
    | Abort
    | Retry
    | Exception
    | Backoff

  val sites : site list
  (** Every site, in declaration order. *)

  val site_label : site -> string

  type action = Proceed | Abort | Stall of int | Crash

  exception Crashed

  type observer = site -> int -> int -> unit

  type party =
    | Observer of { sites : site list; on : observer }
        (** delivered the events of [sites] only *)
    | Decider of (site -> action)

  type subscription

  val armed : int Atomic.t
  (** The armed word: 0 while nothing is subscribed, else a set of bits.
      Among them, the ones sites test: [observing] (an observer),
      [decisions] (a decider, or an observer of a decision site other
      than [Read]), [reads] (a decider, or an observer of [Read]),
      [begins] (an observer of [Begin], or a clock), [stamping] (an
      observer asked for ownership stamps), [locks] (an observer of
      [Locked]/[Released]/[Published]) and [phases] (an observer of the
      [*_time] sites). *)

  val observing : int
  val decisions : int
  val reads : int
  val begins : int
  val stamping : int
  val locks : int
  val phases : int

  val subscribe : ?clock:(unit -> int) -> ?stamp:bool -> party -> subscription
  val unsubscribe : subscription -> unit

  val reset : unit -> unit
  (** Drop every subscription and disarm. *)

  type slot
  (** A replaceable subscription: at most one occupant. *)

  val slot : unit -> slot

  val fill : slot -> subscription -> unit
  (** Occupy the slot, unsubscribing its previous occupant. *)

  val vacate : slot -> unit
  (** Unsubscribe the occupant, if any (idempotent). *)

  val filled : slot -> bool
  (** The occupant is still subscribed ({!reset} vacates every slot). *)

  val emit : int -> site -> int -> int -> unit
  (** [emit m site tvar arg]: deliver one event to the observers that
      asked for [site]. *)

  val decide : int -> site -> int -> action
  (** [decide m site tvar] at a decision site: the decider's action
      ([Proceed] when none).  A [Stall] is spun here and answered as
      [Proceed]; unless the answer is [Abort] or [Crash] the event is
      delivered. *)

  val fire : int -> site -> int -> unit
  (** {!decide} with the no-locks-held interpretation: [Abort] raises
      {!Conflict} (except at [Post_commit], where it proceeds), [Crash]
      raises {!Crashed}. *)

  val now : int -> int
  (** [now m]: the subscribed clock (0 while none is, per [m]). *)

  val lap : int -> site -> int -> int
  (** [lap m site t0]: read the clock, emit the duration since [t0] at
      [site], return the reading. *)

  val start : int -> site -> int -> int
  (** [start m Begin n]: emit the start of attempt [n], return the
      start reading. *)

  val finish : int -> site -> int -> unit
  (** [finish m site t0]: emit the attempt-outcome [site] with the
      duration since [t0].  A [Commit] ends at the core's
      [Publish_time] reading when it took one during the attempt, so
      the clock is not read twice. *)

  val set_self : int -> unit
  val self : unit -> int
end

(** {1 Versioned-lock helpers (TL2's vlock word)} *)

val locked : int -> bool
val version_of : int -> int
val read_vlock : 'a tvar -> int

(** {1 The write log}

    Shared by the write-back cores (tl2, global-lock, norec), and the
    DSTM core's own-write journal.  Each core keeps one log per domain
    and reuses it for every transaction of that domain, so buffering a
    write allocates only the injected value.  Entries are sorted by
    t-variable id — the canonical lock order — and a one-word id filter
    answers most read-own-write misses without a search. *)

val no_handle : handle
(** Filler for empty log slots; never locked or published. *)

val hole : univ
(** Filler for emptied value slots: a finished transaction's logs keep
    no value alive. *)

module Wlog : sig
  type t

  val initial_capacity : int
  val filter_width : int

  val create : unit -> t
  val length : t -> int

  val handle : t -> int -> handle
  (** [handle l i], [0 <= i < length l]: entries ascend by [h_id]. *)

  val value : t -> int -> univ

  val find : t -> int -> int
  (** Index of the entry for this t-variable id, or -1. *)

  val add : t -> handle -> univ -> unit
  (** Insert, or overwrite the buffered value of, the entry. *)

  val clear : t -> unit
  (** Empty the log and reset its value slots, so it keeps no buffered
      value alive.  Handle slots stay until reused. *)
end

val write_back : Wlog.t -> unit
(** Publish every logged value, in id order, for a core that holds one
    lock standing for all t-variable locks (global-lock, norec);
    observers see each t-variable [Locked], then [Published] under
    it. *)

val snapshot_read : 'a tvar -> 'a
(** Direct atomic snapshot read through the vlock seqlock. *)

val spin_budget : int
(** Relax iterations a serialized core spins behind a busy lock before
    converting the wait into {!Conflict} (keeps peers of a crashed lock
    holder starving-but-observable instead of deadlocked). *)

(** {1 The per-algorithm core interface}

    A core supplies the transaction engine; the [Stm] facade owns the
    retry loop (backoff, the attempt-lifecycle sites and their timing,
    per-domain commit/abort counters) and the per-domain transaction
    descriptor, which holds one [txn] record of every core.  The
    facade calls the cores directly (a match on the attempt's
    algorithm), never through this signature: [S] is the contract each
    core is checked against at compile time.

    Contract:
    - [create] builds the one [txn] record a domain reuses for every
      transaction it runs under the core; [begin_] resets it for a new
      attempt.  It may still hold the state of a crashed predecessor,
      which [begin_] must discard.
    - [begin_] never blocks and never raises: any waiting happens in
      [read]/[write]/[commit] where the re-run transaction body keeps
      external stop-flags observable.
    - [read]/[write]/[commit] raise {!Conflict} to abort the attempt
      and may raise [Obs.Crashed]; before re-running (or on any
      other exception) the facade calls [abort_cleanup], which must be
      idempotent and release everything the attempt still holds.
      [abort_cleanup] is never called after [Obs.Crashed]: a crashed
      transaction keeps whatever it holds, by design.
    - [commit] returning normally means the transaction took effect
      and the core has released everything.
    - [recover] releases any {e core-global} state abandoned by crashed
      transactions (the serializer, the sequence lock); per-t-variable
      state (vlocks, locators) is recovered by dropping the crashed
      run's t-variables.  Only sound once every transaction of the core
      is finished or dead — it is for fault-injection harnesses tearing
      down a run, not for concurrent use. *)
module type S = sig
  type txn

  val algo_name : string
  val create : unit -> txn
  val begin_ : txn -> unit
  val read : txn -> 'a tvar -> 'a
  val write : txn -> 'a tvar -> 'a -> unit
  val commit : txn -> unit
  val abort_cleanup : txn -> unit
  val recover : unit -> unit
  val direct_read : 'a tvar -> 'a
end
