(* DSTM-style obstruction-free TM: revocable ownership records with
   abort-others stealing (aggressive contention management).

   Every t-variable points to a locator [{l_status; l_old; l_new}]
   whose [l_status] is the owning transaction's status cell — 0 active,
   1 committed, 2 aborted, transitions monotone and terminal.  The
   committed value is derived: [l_new] if the owner committed, [l_old]
   otherwise.  Writers acquire by installing a fresh locator with CAS;
   commit is a single CAS of the own status cell from active to
   committed — no write-back, no locks.

   Obstruction-free: a transaction running solo finishes in a bounded
   number of its own steps, whatever state crashed peers left behind —
   an active locator abandoned by a crashed owner is simply stolen
   (status CAS 0 -> 2) by the next conflicting access.  The flip side
   is the Kuznetsov–Ravi cost: under contention transactions abort
   each other, and nothing but randomized backoff prevents mutual
   stealing from livelocking.

   Conflict resolution is total: both writes *and reads* encountering
   a foreign active owner steal it.  Reading around an active owner
   (returning [l_old]) would be the classic invisible-reader
   serializability hole — the owner could commit between this
   transaction's commit-time validation and its status CAS.  Stealing
   on every read-write conflict closes it: any two transactions with
   intersecting access sets (where at least one writes) kill one of
   the pair, so a transaction that reaches its commit CAS with its
   reads validated has no live rival ordered both before and after
   it.  Aborted-but-not-yet-retried transactions still see consistent
   snapshots because every read revalidates the whole read set
   (opacity).

   Decision sites: [Read] before each (non-own) read, [Lock_acquire]
   before each ownership acquisition, [Validate]/[Pre_commit] around
   commit-time validation with ownerships held, [Post_commit] after
   the commit CAS.  A crash leaves the status cell active forever:
   the crashed-owner adversary that lock-based cores cannot survive
   and this one shrugs off.

   Observation sites here are under static contract: every [Obs] site
   must match [Stm.Algo.sites] for Dstm and sit behind the armed word
   (tmlive static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "dstm"

(* One transaction record per domain (held by the facade's descriptor),
   reused by every transaction the domain runs.  Only the status cell
   is fresh per attempt: the locators an attempt installs keep it, so
   it outlives the attempt (a crashed owner's cell stays active for
   good, and rivals steal its locators).  The read log is flat arrays
   in read order of (the t-variable's locator cell, the value resolved
   from it), revalidated by [==] on the committed value.  The
   own-write journal is the shared [Wlog]: read-own-write must keep
   answering with the written value even after a rival steals the
   locator out from under us (the doomed transaction still deserves a
   self-consistent view until its commit CAS fails). *)
type txn = {
  mutable d_status : int Atomic.t;
  mutable r_locs : locator Atomic.t array;
  mutable r_seen : univ array;
  mutable r_ids : int array;
  mutable r_n : int;
  writes : Wlog.t;
}

let no_locator =
  Atomic.make
    { l_status = root_status; l_old = hole; l_new = hole; l_owner = -1 }

let create () =
  {
    d_status = Atomic.make 2;
    r_locs = Array.make Wlog.initial_capacity no_locator;
    r_seen = Array.make Wlog.initial_capacity hole;
    r_ids = Array.make Wlog.initial_capacity (-1);
    r_n = 0;
    writes = Wlog.create ();
  }

(* Empty both logs and drop their values.  The locator cells stay until
   reused, like [Wlog]'s handles. *)
let finish t =
  for i = 0 to t.r_n - 1 do
    t.r_seen.(i) <- hole
  done;
  t.r_n <- 0;
  Wlog.clear t.writes

let begin_ t =
  finish t;
  t.d_status <- Atomic.make 0

(* The committed value behind a locator cell, treating a still-active
   foreign owner as not-yet-committed.  Used only by validation and
   direct reads; the access paths resolve conflicts by stealing
   instead. *)
let committed cell =
  let loc = Atomic.get cell in
  if Atomic.get loc.l_status = 1 then loc.l_new else loc.l_old

(* The one aggressor-side site: only a successful steal aborts someone,
   and only the stealer knows it happened (the victim's commit CAS
   failure later is this same edge, so it stays silent).  Its argument
   is the victim, the slot recorded in the locator. *)
let steal loc tv =
  if Atomic.compare_and_set loc.l_status 0 2 then begin
    let m = Atomic.get Obs.armed in
    if m <> 0 then Obs.emit m Obs.Stolen tv.id loc.l_owner
  end

(* Resolve [tv] for this transaction: own tentative value, or the
   stable value of a terminal locator (stealing any foreign active
   owner first — statuses are terminal, so one steal attempt leaves
   the status stably decided). *)
let rec resolve t tv =
  let loc = Atomic.get tv.locator in
  if loc.l_status == t.d_status then loc.l_new
  else
    let st = Atomic.get loc.l_status in
    if st = 0 then begin
      steal loc tv;
      resolve t tv
    end
    else if st = 1 then loc.l_new
    else loc.l_old

(* Index of the newest read whose committed value is no longer the one
   seen, or -1. *)
let rec newest_invalid t i =
  if i < 0 then -1
  else if committed t.r_locs.(i) == t.r_seen.(i) then newest_invalid t (i - 1)
  else i

let validate t =
  let bad = newest_invalid t (t.r_n - 1) in
  if bad >= 0 then begin
    let m = Atomic.get Obs.armed in
    if m <> 0 then
      Obs.emit m Obs.Validation t.r_ids.(bad)
        (Atomic.get t.r_locs.(bad)).l_owner;
    raise Conflict
  end

let log_read t tv u =
  if t.r_n = Array.length t.r_locs then begin
    let cap = 2 * t.r_n in
    let locs = Array.make cap no_locator and seen = Array.make cap hole in
    let ids = Array.make cap (-1) in
    Array.blit t.r_locs 0 locs 0 t.r_n;
    Array.blit t.r_seen 0 seen 0 t.r_n;
    Array.blit t.r_ids 0 ids 0 t.r_n;
    t.r_locs <- locs;
    t.r_seen <- seen;
    t.r_ids <- ids
  end;
  t.r_locs.(t.r_n) <- tv.locator;
  t.r_seen.(t.r_n) <- u;
  t.r_ids.(t.r_n) <- tv.id;
  t.r_n <- t.r_n + 1

let read (type a) t (tv : a tvar) : a =
  let i = Wlog.find t.writes tv.id in
  if i >= 0 then tv.proj (Wlog.value t.writes i) (* read-own-write *)
  else begin
    let m = Atomic.get Obs.armed in
    if m land Obs.reads <> 0 then Obs.fire m Obs.Read tv.id;
    let u = resolve t tv in
    (* Incremental validation: the new value joined to the prior
       reads must still be one consistent snapshot (opacity for
       doomed transactions included). *)
    validate t;
    log_read t tv u;
    tv.proj u
  end

(* Own [tv] with tentative value [u]: update an owned locator in place,
   or steal any active foreign owner and install a fresh locator. *)
let rec acquire t tv u =
  let loc = Atomic.get tv.locator in
  if loc.l_status == t.d_status then loc.l_new <- u
  else begin
    let m = Atomic.get Obs.armed in
    if m land Obs.decisions <> 0 then Obs.fire m Obs.Lock_acquire tv.id;
    let st = Atomic.get loc.l_status in
    if st = 0 then begin
      steal loc tv;
      acquire t tv u
    end
    else
      let old = if st = 1 then loc.l_new else loc.l_old in
      let l_owner = if m land Obs.stamping <> 0 then Obs.self () else -1 in
      let loc' = { l_status = t.d_status; l_old = old; l_new = u; l_owner } in
      if not (Atomic.compare_and_set tv.locator loc loc') then acquire t tv u
  end

let write (type a) t (tv : a tvar) (x : a) : unit =
  let u = tv.inj x in
  acquire t tv u;
  Wlog.add t.writes tv.handle u

let commit t =
  let m = Atomic.get Obs.armed in
  (* [fire]'s interpretation is right even with ownerships held: an
     [Abort] raises [Conflict] and the facade's [abort_cleanup] revokes
     them (one status CAS); a [Crash] leaves them active. *)
  if m land Obs.decisions <> 0 then Obs.fire m Obs.Validate (-1);
  let t0 = if m land Obs.phases <> 0 then Obs.now m else 0 in
  validate t;
  let t1 = if m land Obs.phases <> 0 then Obs.lap m Obs.Validate_time t0 else 0 in
  if m land Obs.decisions <> 0 then Obs.fire m Obs.Pre_commit (-1);
  (* The whole commit: one CAS.  Failure means a rival stole us. *)
  if not (Atomic.compare_and_set t.d_status 0 1) then raise Conflict;
  if m land Obs.phases <> 0 then ignore (Obs.lap m Obs.Publish_time t1);
  finish t;
  if m land Obs.decisions <> 0 then Obs.fire m Obs.Post_commit (-1)

(* Revoke: one terminal status CAS abandons every owned locator at its
   old value.  Idempotent, and a no-op on a committed/stolen cell. *)
let abort_cleanup t =
  ignore (Atomic.compare_and_set t.d_status 0 2);
  finish t

(* No core-global state at all — abandoned ownerships are stolen by the
   next rival, which is the whole point of the algorithm. *)
let recover () = ()

let direct_read (type a) (tv : a tvar) : a = tv.proj (committed tv.locator)
