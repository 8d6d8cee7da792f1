(* Shared substrate of the real-domains STM algorithm zoo.

   Everything algorithm-independent lives here: the t-variable
   representation and its type-erased [handle], the universal-type
   trick for heterogeneous read/write sets, the write log [Wlog] shared
   by the write-back cores, the zero-cost observation seams ([Trace],
   [Chaos], [Tel], [Blame]) and the core interface [S] that each
   algorithm implements.  The [Stm] facade dispatches the public API to the
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
      (* plan slot of the installing transaction's domain when the Blame
         seam is armed, -1 otherwise — lets a stealer name its victim *)
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
         only while the Blame seam is armed (-1 = unknown) *)
  inj : 'a -> univ;
  proj : univ -> 'a;
  handle : handle;
}

let next_id = Atomic.make 0

(* All freshly created t-variables share one permanently-committed
   status cell: a steal (CAS 0 -> 2) on it can never succeed, and no
   transaction ever owns it. *)
let root_status = Atomic.make 1

module Tev = Tm_trace.Trace_event

(* Runtime tracing.  The hot path pays one [Atomic.get] on a global flag
   per potential event; when the flag is false no event is even
   constructed.  When on, each domain writes into its own fixed-size ring
   (single-writer, no lock on the emit path) registered in a global list
   so [events] can collect them afterwards.  Timestamps come from a global
   emission sequence — they give a total order of emissions, not wall
   time. *)
module Trace = struct
  type mode = Off | Null | Rings of int

  let tracing = Atomic.make false
  let mode = Atomic.make Off
  let generation = Atomic.make 0
  let seq = Atomic.make 0
  let emitted_count = Atomic.make 0
  let registry_mu = Mutex.create ()
  let registry : Tm_trace.Ring.t list ref = ref []

  let slot : (int * Tm_trace.Ring.t) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let default_capacity = 4096

  let reset_locked m =
    registry := [];
    Atomic.incr generation;
    Atomic.set seq 0;
    Atomic.set emitted_count 0;
    Atomic.set mode m;
    Atomic.set tracing (m <> Off)

  let start ?(capacity = default_capacity) () =
    if capacity < 1 then invalid_arg "Stm.Trace.start: capacity must be positive";
    Mutex.protect registry_mu (fun () -> reset_locked (Rings capacity))

  let start_null () = Mutex.protect registry_mu (fun () -> reset_locked Null)

  let stop () =
    Mutex.protect registry_mu (fun () ->
        Atomic.set tracing false;
        Atomic.set mode Off)

  let is_on () = Atomic.get tracing

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

  let emit cat name phase args =
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

(* Deterministic fault injection.  Same zero-cost discipline as [Trace]:
   every interception point costs one [Atomic.get] on [armed] when no
   plan is installed, and only consults the handler when armed.  The
   handler decides per point: proceed, abort the attempt (a normal
   conflict, counted and retried), stall (bounded spinning), or crash.
   [Crashed] escapes [atomically] through its generic exception arm
   without releasing any commit locks the domain holds — a crash at
   [Pre_commit] is therefore the paper's crashed-lock-holder adversary,
   observable on real domains.  Where each point fires is
   algorithm-specific; see [Stm.Algo] for the per-core mapping. *)
module Chaos = struct
  type point = Read | Validate | Lock_acquire | Pre_commit | Post_commit
  type action = Proceed | Abort | Stall of int | Crash

  exception Crashed

  let null_handler : point -> action = fun _ -> Proceed
  let armed = Atomic.make false
  let handler = Atomic.make null_handler

  let install f =
    Atomic.set handler f;
    Atomic.set armed true

  let uninstall () =
    Atomic.set armed false;
    Atomic.set handler null_handler

  let is_armed () = Atomic.get armed

  let point_label = function
    | Read -> "read"
    | Validate -> "validate"
    | Lock_acquire -> "lock-acquire"
    | Pre_commit -> "pre-commit"
    | Post_commit -> "post-commit"

  let stall n =
    for _ = 1 to n do
      Domain.cpu_relax ()
    done

  let decide p = if Atomic.get armed then (Atomic.get handler) p else Proceed

  (* Interpretation for points where the domain holds no commit locks;
     commit paths interpret actions themselves so an [Abort] can back
     out whatever the core already holds (and a [Crash] deliberately
     does not).  At [Post_commit] the transaction has already taken
     effect: there is nothing left to abort, so [Abort] proceeds — a
     retry would apply the committed body a second time. *)
  let fire p =
    match decide p with
    | Proceed -> ()
    | Stall n -> stall n
    | Abort -> ( match p with Post_commit -> () | _ -> raise Conflict)
    | Crash -> raise Crashed
end

(* Always-on telemetry.  Third user of the zero-cost discipline of
   [Trace] and [Chaos]: every instrumented event costs one [Atomic.get]
   on [armed] while no probe is installed, and the probe record is only
   loaded once armed.  The probe supplies its own clock so this module
   stays clock-library-agnostic; [now] must be monotone and its unit is
   whatever the installer counts in (tm_telemetry installs nanoseconds).
   Durations handed to [observe] are [now] deltas in that unit. *)
module Tel = struct
  type phase = Begin | Read | Lock | Validate | Publish | Commit | Abort

  type probe = {
    now : unit -> int;
    count : phase -> unit;
    observe : phase -> int -> unit;
  }

  let null_probe =
    { now = (fun () -> 0); count = (fun _ -> ()); observe = (fun _ _ -> ()) }

  let armed = Atomic.make false
  let probe = Atomic.make null_probe

  let install p =
    Atomic.set probe p;
    Atomic.set armed true

  let uninstall () =
    Atomic.set armed false;
    Atomic.set probe null_probe

  let is_armed () = Atomic.get armed

  let phase_label = function
    | Begin -> "begin"
    | Read -> "read"
    | Lock -> "lock-acquire"
    | Validate -> "validate"
    | Publish -> "publish"
    | Commit -> "commit"
    | Abort -> "abort"
end

(* Blame attribution.  Fourth user of the zero-cost seam discipline:
   every abort/steal/wait decision site in the cores costs one
   [Atomic.get] on [armed] while no sink is installed.  When armed, the
   cores additionally stamp ownership (tvar [owner], locator [l_owner])
   with the emitter's plan slot so the aggressor of a conflict can be
   named; disarmed they never touch those words, so the fast path is
   byte-identical to the pre-blame one.

   Identity is the {e plan slot} (0..domains-1) of the worker's domain,
   not the raw [Domain.self ()]: the chaos runner assigns slots, one
   live transaction per slot, so slot = transaction for attribution
   purposes and the graph is comparable across runs.  Code running
   outside a slotted worker reports -1 ("unknown"). *)
module Blame = struct
  type cause = Read_conflict | Lock_busy | Validation | Stolen | Wait_budget

  type event = {
    b_victim : int;  (** slot whose attempt is impeded (-1 unknown) *)
    b_aggressor : int;  (** slot held responsible (-1 unknown) *)
    b_tvar : int;  (** t-variable id the conflict was on (-1 none) *)
    b_cause : cause;
  }

  type sink = { on_event : event -> unit; on_progress : int -> unit }

  let null_sink = { on_event = (fun _ -> ()); on_progress = (fun _ -> ()) }
  let armed = Atomic.make false
  let sink = Atomic.make null_sink

  let install s =
    Atomic.set sink s;
    Atomic.set armed true

  let uninstall () =
    Atomic.set armed false;
    Atomic.set sink null_sink

  let is_armed () = Atomic.get armed

  let cause_label = function
    | Read_conflict -> "read-conflict"
    | Lock_busy -> "lock-busy"
    | Validation -> "validation"
    | Stolen -> "stolen"
    | Wait_budget -> "wait-budget"

  let causes =
    [ Read_conflict; Lock_busy; Validation; Stolen; Wait_budget ]

  let slot_key : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref (-1))
  let set_self s = Domain.DLS.get slot_key := s
  let self () = !(Domain.DLS.get slot_key)

  (* Only called from armed-guarded sites; no second [armed] check.
     [emit_event] is for the one site where the emitter is the
     aggressor (the DSTM steal); everywhere else the victim reports
     its own impediment via [emit]. *)
  let emit_event ~victim ~aggressor ~tvar cause =
    (Atomic.get sink).on_event
      { b_victim = victim; b_aggressor = aggressor; b_tvar = tvar; b_cause = cause }

  let emit ~aggressor ~tvar cause =
    emit_event ~victim:(self ()) ~aggressor ~tvar cause

  let progress () =
    if Atomic.get armed then (Atomic.get sink).on_progress (self ())
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
   held lock stands for every t-variable lock: the trace shows the write
   set acquired, published and released under it so the lock-discipline
   lints see a coherent protocol. *)
let write_back w =
  let n = Wlog.length w in
  let tr = Atomic.get Trace.tracing in
  if tr then
    for k = 0 to n - 1 do
      Trace.emit Tev.Lock "acquire" Tev.Instant
        [ ("tvar", Tev.Int (Wlog.handle w k).h_id); ("order", Tev.Int k) ]
    done;
  for i = 0 to n - 1 do
    let h = Wlog.handle w i in
    if tr then begin
      Trace.emit Tev.Txn "publish" Tev.Instant [ ("tvar", Tev.Int h.h_id) ];
      Trace.emit Tev.Lock "release" Tev.Instant [ ("tvar", Tev.Int h.h_id) ]
    end;
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
   [Stm] facade owns the retry loop (backoff, trace attempt spans, Tel
   Begin/Commit/Abort timing, per-domain commit/abort counters) and the
   per-domain current-transaction slot.

   Contract:
   - [begin_] never blocks and never raises: any waiting happens in
     [read]/[write]/[commit] where the re-run transaction body keeps
     external stop-flags observable.
   - [read]/[write]/[commit] raise [Conflict] to abort the attempt and
     may raise [Chaos.Crashed]; before re-running (or on any other
     exception) the facade calls [abort_cleanup], which must be
     idempotent and release everything the attempt still holds.
     [abort_cleanup] is never called after [Chaos.Crashed]: a crashed
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
