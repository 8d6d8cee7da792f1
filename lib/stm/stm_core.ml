(* Shared substrate of the real-domains STM algorithm zoo.

   Everything algorithm-independent lives here: the t-variable
   representation and its type-erased [handle], the universal-type
   trick for heterogeneous read/write sets, the write log [Wlog] shared
   by the write-back cores, the zero-cost observation seam [Obs] and
   the core interface [S] that each algorithm implements.  The [Stm] facade dispatches the public API to the
   currently selected core; the cores themselves live in [Stm_tl2],
   [Stm_glock], [Stm_dstm] and [Stm_norec].

   Type erasure for the heterogeneous read/write sets uses the
   universal type trick: every t-variable carries its own
   injection/projection pair built from a locally generated
   extensible-variant constructor, so no [Obj] is needed. *)

type univ = exn

(* DSTM-style locator: the committed value of a t-variable owned by a
   transaction is derived from the owner's status.  [l_status] is the
   owner transaction's status cell (shared across all its locators):
   0 = active, 1 = committed, 2 = aborted; transitions are monotone
   and terminal (only 0->1 and 0->2 ever happen).  Non-DSTM cores
   ignore the locator entirely. *)
type locator = {
  l_status : int Atomic.t;
  l_old : univ;
  mutable l_new : univ;
  l_owner : int;
      (* plan slot of the installing transaction's domain while an
         observer stamps ownership, -1 otherwise — lets a stealer name
         its victim *)
}

(* The type-erased face of a t-variable, built once at creation: what
   a write log or a read log needs to lock, validate, stamp and publish
   the t-variable without knowing its type.  [h_vlock] and [h_owner]
   are the very atomics of the t-variable; [h_set] stores a value
   injected by the t-variable's own [inj]. *)
type handle = {
  h_id : int;
  h_vlock : int Atomic.t;
  h_owner : int Atomic.t;
  h_set : univ -> unit;
}

type 'a tvar = {
  id : int;
  content : 'a Atomic.t;
  vlock : int Atomic.t;
  locator : locator Atomic.t;
  owner : int Atomic.t;
      (* plan slot of the last lock holder / committed writer, written
         only while an observer stamps ownership (-1 = unknown) *)
  inj : 'a -> univ;
  proj : univ -> 'a;
  handle : handle;
}

let next_id = Atomic.make 0

(* All freshly created t-variables share one permanently-committed
   status cell: a steal (CAS 0 -> 2) on it can never succeed, and no
   transaction ever owns it. *)
let root_status = Atomic.make 1

let tvar (type a) (init : a) : a tvar =
  let module M = struct
    exception E of a
  end in
  let inj x = M.E x in
  (* Every [univ] a core projects was injected by this same t-variable,
     so the other arm is unreachable. *)
  let proj = function M.E x -> x | _ -> assert false in
  let u0 = inj init in
  let id = Atomic.fetch_and_add next_id 1 in
  let content = Atomic.make init in
  let vlock = Atomic.make 0 in
  let owner = Atomic.make (-1) in
  {
    id;
    content;
    vlock;
    locator =
      Atomic.make { l_status = root_status; l_old = u0; l_new = u0; l_owner = -1 };
    owner;
    inj;
    proj;
    handle =
      {
        h_id = id;
        h_vlock = vlock;
        h_owner = owner;
        h_set = (fun u -> Atomic.set content (proj u));
      };
  }

exception Retry
exception Conflict

(* The observation seam: one armed word, one vocabulary of sites, one
   subscriber registry.

   A site is a point of the transaction protocol where a core or the
   facade may be observed.  The hot path pays one [Atomic.get] on
   [armed] per site; while nothing is subscribed the word is 0 and
   nothing else is loaded or constructed.  Armed, an event — the site,
   a t-variable id (-1 when none) and one int argument (0 when none) —
   is delivered to every observer that asked for the site, in
   subscription order.

   Chaos is the one subscriber that decides rather than observes: at
   the five decision sites ([Read], [Lock_acquire], [Validate],
   [Pre_commit], [Post_commit]) the most recent decider is consulted
   before the event is delivered, and its action can stall, abort or
   crash the attempt.  [Crashed] escapes [atomically] through its
   generic exception arm without releasing any commit locks the domain
   holds — a crash at [Pre_commit] is therefore the paper's
   crashed-lock-holder adversary, observable on real domains.

   The word is a bit set, so work inside the armed branch that only
   some parties need tests its own bit: [decisions] and [reads] while
   a decider is subscribed (or an observer asked for a decision site,
   resp. [Read]), [locks] and [phases] while an observer asked for the
   per-t-variable lock protocol or the timed commit phases, [begins]
   while an observer asked for [Begin] or supplied a clock, [timing]
   while a clock is subscribed, and [stamping] while an observer
   attributes blame — the cores then stamp ownership (t-variable
   [owner], locator [l_owner]) with the plan slot of the emitting
   domain so the aggressor of a conflict can be named; without it they
   never touch those words.

   Durations are deltas of one clock, supplied by the subscriber that
   wants time ([?clock] of [subscribe]); with no clock every duration
   reads 0, so stm itself stays clock-agnostic. *)
module Obs = struct
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

  let sites =
    [
      Begin; Read; Read_conflict; Lock_acquire; Locked; Lock_busy; Released;
      Lock_time; Validate; Validation; Validate_time; Stolen; Wait_budget;
      Pre_commit; Published; Publish_time; Post_commit; Commit; Abort; Retry;
      Exception; Backoff;
    ]

  (* Each site's position in [sites] (the index of its routes) and
     its label. *)
  let[@inline] info = function
    | Begin -> (0, "begin")
    | Read -> (1, "read")
    | Read_conflict -> (2, "read-conflict")
    | Lock_acquire -> (3, "lock-acquire")
    | Locked -> (4, "locked")
    | Lock_busy -> (5, "lock-busy")
    | Released -> (6, "released")
    | Lock_time -> (7, "lock-time")
    | Validate -> (8, "validate")
    | Validation -> (9, "validation")
    | Validate_time -> (10, "validate-time")
    | Stolen -> (11, "stolen")
    | Wait_budget -> (12, "wait-budget")
    | Pre_commit -> (13, "pre-commit")
    | Published -> (14, "published")
    | Publish_time -> (15, "publish-time")
    | Post_commit -> (16, "post-commit")
    | Commit -> (17, "commit")
    | Abort -> (18, "abort")
    | Retry -> (19, "retry")
    | Exception -> (20, "exception")
    | Backoff -> (21, "backoff")

  let site_label s = snd (info s)

  type action = Proceed | Abort | Stall of int | Crash

  exception Crashed

  type observer = site -> int -> int -> unit

  type party =
    | Observer of { sites : site list; on : observer }
    | Decider of (site -> action)

  type subscription = { id : int; party : party; stamp : bool; timed : bool }

  let observing = 1
  let decisions = 2
  let stamping = 4
  let timing = 8
  let locks = 16
  let phases = 32
  let reads = 64
  let begins = 128
  let armed = Atomic.make 0
  let no_clock () = 0
  let clock = Atomic.make no_clock
  let null_decider : site -> action = fun _ -> Proceed
  let decider = Atomic.make null_decider

  (* Per site, the observers that asked for it, in subscription order:
     a site nobody asked for costs one array load. *)
  let routes : observer array array Atomic.t =
    Atomic.make (Array.make (List.length sites) [||])

  let registry_mu = Mutex.create ()
  let registry : subscription list ref = ref [] (* newest first *)
  let next_id = ref 0

  (* Recompute the dispatch state from the registry; under
     [registry_mu].  The armed word is written last, so a site that
     sees a bit set finds the state behind it in place. *)
  let rearm () =
    let subs = List.rev !registry in
    let route site =
      Array.of_list
        (List.filter_map
           (fun s ->
             match s.party with
             | Observer o when List.mem site o.sites -> Some o.on
             | _ -> None)
           subs)
    in
    let dec =
      List.fold_left
        (fun d s -> match s.party with Decider h -> Some h | Observer _ -> d)
        None subs
    in
    let has p = List.exists p subs in
    let asks ss =
      has (fun s ->
          match s.party with
          | Observer o -> List.exists (fun x -> List.mem x ss) o.sites
          | Decider _ -> false)
    in
    let bit b c = if c then b else 0 in
    Atomic.set routes (Array.of_list (List.map route sites));
    Atomic.set decider (Option.value dec ~default:null_decider);
    if not (has (fun s -> s.timed)) then Atomic.set clock no_clock;
    Atomic.set armed
      (bit observing (has (fun s -> match s.party with Observer _ -> true | _ -> false))
      lor bit decisions
            (dec <> None || asks [ Lock_acquire; Validate; Pre_commit; Post_commit ])
      lor bit stamping (has (fun s -> s.stamp))
      lor bit timing (has (fun s -> s.timed))
      lor bit locks (asks [ Locked; Released; Published ])
      lor bit phases (asks [ Lock_time; Validate_time; Publish_time ])
      lor bit reads (dec <> None || asks [ Read ])
      lor bit begins (asks [ Begin ] || has (fun s -> s.timed)))

  let subscribe ?clock:c ?(stamp = false) party =
    Mutex.protect registry_mu (fun () ->
        incr next_id;
        let s = { id = !next_id; party; stamp; timed = c <> None } in
        registry := s :: !registry;
        Option.iter (Atomic.set clock) c;
        rearm ();
        s)

  let unsubscribe s =
    Mutex.protect registry_mu (fun () ->
        registry := List.filter (fun s' -> s'.id <> s.id) !registry;
        rearm ())

  let active s =
    Mutex.protect registry_mu (fun () ->
        List.exists (fun s' -> s'.id = s.id) !registry)

  let reset () =
    Mutex.protect registry_mu (fun () ->
        registry := [];
        rearm ())

  (* A replaceable subscription, for parties of which at most one is
     installed at a time (the trace recorder, the chaos plan, the blame
     sink, the telemetry probe): filling a slot drops its previous
     occupant. *)
  type slot = subscription option Atomic.t

  let slot () : slot = Atomic.make None
  let fill (sl : slot) s = Option.iter unsubscribe (Atomic.exchange sl (Some s))
  let vacate (sl : slot) = Option.iter unsubscribe (Atomic.exchange sl None)
  let filled (sl : slot) = match Atomic.get sl with Some s -> active s | None -> false

  (* Everything below is only called from an armed branch
     ([if m <> 0 then ...] with [m = Atomic.get armed]) and does not
     re-check the word.  Each site makes one call: the decision,
     delivery and timing a site needs are folded into that call. *)

  let[@inline] deliver fs site tvar arg =
    for i = 0 to Array.length fs - 1 do
      (Array.unsafe_get fs i) site tvar arg
    done

  let[@inline] emit m site tvar arg =
    if m land observing <> 0 then begin
      let fs = Array.unsafe_get (Atomic.get routes) (fst (info site)) in
      if Array.length fs > 0 then deliver fs site tvar arg
    end

  let stall n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done

  (* A decision site: the decider's action, with a [Stall] already
     spun (and answered as [Proceed]); unless the attempt is to abort
     or crash, the event is delivered.  Commit paths interpret [Abort]
     and [Crash] themselves, so an [Abort] can back out whatever the
     core already holds (and a [Crash] deliberately does not). *)
  let[@inline] decide m site tvar =
    let a = if m land decisions <> 0 then (Atomic.get decider) site else Proceed in
    match a with
    | Proceed -> emit m site tvar 0; Proceed
    | Stall n -> stall n; emit m site tvar 0; Proceed
    | Abort | Crash -> a

  (* A decision site where the domain holds no commit locks.  At
     [Post_commit] the transaction has already taken effect: there is
     nothing left to abort, so [Abort] proceeds — a retry would apply
     the committed body a second time. *)
  let fire m site tvar =
    match decide m site tvar with
    | Proceed | Stall _ -> ()
    | Abort -> if site = Post_commit then emit m site tvar 0 else raise Conflict
    | Crash -> raise Crashed

  (* The clock is only read while a subscriber supplied one. *)
  let[@inline] now m = if m land timing <> 0 then (Atomic.get clock) () else 0

  (* The domain's latest [Publish_time] reading: the facade's
     commit-end reading reuses it instead of reading the clock again. *)
  let published_at : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

  (* End of a timed phase begun at [t0]: emit its duration and return
     the reading, which starts the next phase. *)
  let lap m site t0 =
    let t = now m in
    emit m site (-1) (t - t0);
    if site = Publish_time && m land timing <> 0 then Domain.DLS.get published_at := t;
    t

  (* An attempt begins at [site] ([Begin], argument the attempt
     number [n]): emit it, return the start reading. *)
  let start m site n =
    emit m site (-1) n;
    now m

  (* An attempt begun at [t0] ends at [site], which carries its
     duration.  A commit's end reading is the core's [Publish_time]
     reading when it took one during the attempt (the clock is
     monotone, so an older one is <= [t0]), else the clock. *)
  let finish m site t0 =
    let t =
      if m land timing = 0 then 0
      else if site = Commit then
        let p = !(Domain.DLS.get published_at) in
        if p > t0 then p else now m
      else now m
    in
    emit m site (-1) (t - t0)

  (* Identity is the {e plan slot} (0..domains-1) of the worker's
     domain, not the raw [Domain.self ()]: the chaos runner assigns
     slots, one live transaction per slot, so slot = transaction for
     attribution and a blame graph is comparable across runs.  Code
     running outside a slotted worker reports -1 ("unknown"). *)
  let slot_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))
  let set_self s = Domain.DLS.get slot_key := s
  let self () = !(Domain.DLS.get slot_key)
end
(* Versioned-lock helpers (TL2's vlock word: even = unlocked, value is
   version << 1; odd = locked by a committing transaction). *)
let locked v = v land 1 = 1
let version_of v = v lsr 1
let read_vlock tv = Atomic.get tv.vlock

(* The write log shared by the write-back cores (tl2, global-lock,
   norec): one per domain per core, reused by every transaction of
   that domain, so buffering a write allocates only the injected value.
   Entries are stored in arrival order and indexed by a sorted id array
   — the canonical commit-time lock order — so commit never sorts and a
   lookup is a binary search over plain ints.  Inserting shifts only the
   two int arrays: moving boxed entries in a reused (major-heap) array
   would pay a write barrier per moved slot.  A one-word filter with bit
   [id mod 63] set for every logged id answers the common read-own-write
   miss without searching.  Emptied value slots are reset to [hole] so
   a finished transaction keeps no buffered value alive.  Handle slots
   are left until reused: resetting them too paid one write barrier per
   slot, measured at 7% of the median request latency of the long-txn
   benchmark workload (2-core VM), and a stale handle only keeps its
   t-variable's cells reachable, for at most as many t-variables as the
   largest transaction the domain has run. *)
exception Hole

let hole : univ = Hole

let no_handle =
  { h_id = -1; h_vlock = Atomic.make 0; h_owner = Atomic.make (-1); h_set = ignore }

module Wlog = struct
  type t = {
    mutable hs : handle array;  (* [0, n) in arrival order *)
    mutable vs : univ array;
    mutable ids : int array;  (* [0, n): the logged ids, ascending *)
    mutable ord : int array;  (* arrival index of the entry with [ids.(j)] *)
    mutable n : int;
    mutable filter : int;
  }

  let initial_capacity = 8
  let filter_width = 63

  let create () =
    {
      hs = Array.make initial_capacity no_handle;
      vs = Array.make initial_capacity hole;
      ids = Array.make initial_capacity 0;
      ord = Array.make initial_capacity 0;
      n = 0;
      filter = 0;
    }

  let length l = l.n
  let handle l j = l.hs.(l.ord.(j))
  let value l j = l.vs.(l.ord.(j))
  let bit id = 1 lsl (id mod filter_width)

  (* First position in [lo, hi) whose id is >= [id]. *)
  let rec lower_bound ids id lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if ids.(mid) < id then lower_bound ids id (mid + 1) hi
      else lower_bound ids id lo mid

  let find l id =
    if l.filter land bit id = 0 then -1
    else
      let j = lower_bound l.ids id 0 l.n in
      if j < l.n && l.ids.(j) = id then j else -1

  let grow l =
    let cap = 2 * Array.length l.hs in
    let hs = Array.make cap no_handle and vs = Array.make cap hole in
    let ids = Array.make cap 0 and ord = Array.make cap 0 in
    Array.blit l.hs 0 hs 0 l.n;
    Array.blit l.vs 0 vs 0 l.n;
    Array.blit l.ids 0 ids 0 l.n;
    Array.blit l.ord 0 ord 0 l.n;
    l.hs <- hs;
    l.vs <- vs;
    l.ids <- ids;
    l.ord <- ord

  let add l (h : handle) u =
    let id = h.h_id and n = l.n in
    let j =
      if n = 0 || l.ids.(n - 1) < id then n else lower_bound l.ids id 0 n
    in
    if j < n && l.ids.(j) = id then l.vs.(l.ord.(j)) <- u
    else begin
      if n = Array.length l.hs then grow l;
      let ids = l.ids and ord = l.ord in
      for k = n downto j + 1 do
        ids.(k) <- ids.(k - 1);
        ord.(k) <- ord.(k - 1)
      done;
      ids.(j) <- id;
      ord.(j) <- n;
      l.hs.(n) <- h;
      l.vs.(n) <- u;
      l.n <- n + 1;
      l.filter <- l.filter lor bit id
    end

  let clear l =
    for i = 0 to l.n - 1 do
      l.vs.(i) <- hole
    done;
    l.n <- 0;
    l.filter <- 0
end

(* Write-back for the serialized cores (global-lock, norec), whose one
   held lock stands for every t-variable lock: observers see the write
   set locked, then published (which releases) under it, so the
   lock-discipline lints see a coherent protocol. *)
let write_back w =
  let n = Wlog.length w in
  let m = Atomic.get Obs.armed in
  if m land Obs.locks <> 0 then
    for k = 0 to n - 1 do
      Obs.emit m Obs.Locked (Wlog.handle w k).h_id k
    done;
  for i = 0 to n - 1 do
    let h = Wlog.handle w i in
    if m land Obs.locks <> 0 then Obs.emit m Obs.Published h.h_id 0;
    h.h_set (Wlog.value w i)
  done

(* Direct (non-transactional) atomic snapshot read through the vlock
   seqlock — the write-back cores' [direct_read]. *)
let rec snapshot_read tv =
  let v1 = read_vlock tv in
  if locked v1 then begin
    Domain.cpu_relax ();
    snapshot_read tv
  end
  else
    let x = Atomic.get tv.content in
    if read_vlock tv = v1 then x
    else begin
      Domain.cpu_relax ();
      snapshot_read tv
    end

(* Bounded spinning for the serialized cores.  A peer stuck behind a
   stranded lock (a crashed holder) must not hang: after [spin_budget]
   relax iterations the wait is converted into an ordinary [Conflict],
   so the attempt aborts, the transaction body re-runs, and whatever
   stop-flag the body checks stays observable.  Such a domain
   classifies as starving rather than deadlocked. *)
let spin_budget = 1 lsl 14

(* Per-algorithm core.  A core supplies the transaction engine; the
   [Stm] facade owns the retry loop (backoff, the attempt-lifecycle
   sites and their timing, per-domain commit/abort counters) and the
   per-domain current-transaction slot.

   Contract:
   - [begin_] never blocks and never raises: any waiting happens in
     [read]/[write]/[commit] where the re-run transaction body keeps
     external stop-flags observable.
   - [read]/[write]/[commit] raise [Conflict] to abort the attempt and
     may raise [Obs.Crashed]; before re-running (or on any other
     exception) the facade calls [abort_cleanup], which must be
     idempotent and release everything the attempt still holds.
     [abort_cleanup] is never called after [Obs.Crashed]: a crashed
     transaction keeps whatever it holds, by design.
   - [commit] returning normally means the transaction took effect;
     the core has released everything. *)
module type S = sig
  type txn

  val algo_name : string
  val begin_ : unit -> txn
  val read : txn -> 'a tvar -> 'a
  val write : txn -> 'a tvar -> 'a -> unit
  val commit : txn -> unit
  val abort_cleanup : txn -> unit
  val recover : unit -> unit
  val direct_read : 'a tvar -> 'a
end

type packed = Idle | P : (module S with type txn = 't) * 't -> packed
