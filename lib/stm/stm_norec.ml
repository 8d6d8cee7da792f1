(* NOrec: no ownership records — value-based validation under a single
   global sequence lock.

   The only shared metadata is [seqlock]: even = free (the value is the
   commit sequence number), odd = a writer is writing back.  A
   transaction snapshots the sequence number at begin; a read returns
   the content if the lock still equals the snapshot, otherwise it
   re-validates the whole read set value-by-value and adopts the new
   snapshot.  Commit acquires the lock with CAS(snap, snap+1) —
   revalidating until it wins — writes back, and releases to snap+2.

   Validation compares with physical equality ([==]): sound (the same
   box is the same value), conservative (a new structurally-equal box
   aborts spuriously), and safe on contents a polymorphic [=] would
   refuse (closures inside txn_map/txn_list nodes).

   Site truthfulness: NOrec has no per-location lock-acquire phase, so
   this core never emits [Lock_time] — acquiring the sequence lock *is*
   validation (the CAS argument is the validated snapshot) and is timed
   as [Validate_time]; write-back is [Publish_time].

   Decision sites: [Read] before each (non-own) read, [Validate] before
   commit-time lock acquisition (holding nothing), [Pre_commit] once
   the sequence lock is held — a [Crash] there strands it odd forever
   and every peer starves (bounded spins keep them observable), an
   [Abort] restores it — and [Post_commit] after release.
   [Lock_acquire] never fires.

   Observation sites here are under static contract: every [Obs] site
   must match [Stm.Algo.sites] for Norec and sit behind the armed word
   (tmlive static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "norec"

(* Even = free (commit sequence number), odd = write-back in progress. *)
let seqlock = Atomic.make 0

(* Blame identity of the last committer (the slot that last won the
   sequence-lock CAS), written only while an observer stamps ownership: a
   peer whose value validation fails, or whose wait behind an odd lock
   exhausts its budget, blames this slot. *)
let seq_owner = Atomic.make (-1)

(* A read-set entry: the t-variable's content cell and the value read
   from it.  The existential keeps the comparison typed without a
   closure; validation is [Atomic.get cell == seen]. *)
type seen = Seen : 'a Atomic.t * 'a -> seen

let no_seen = Seen (Atomic.make (), ())

(* One transaction record per domain, reused by every transaction the
   domain runs: the read set is flat arrays in read order, the write
   log the shared [Wlog]. *)
type txn = {
  mutable snap : int;
  mutable r_ids : int array;
  mutable r_seen : seen array;
  mutable r_n : int;
  writes : Wlog.t;
}

let key : txn Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        snap = 0;
        r_ids = Array.make Wlog.initial_capacity (-1);
        r_seen = Array.make Wlog.initial_capacity no_seen;
        r_n = 0;
        writes = Wlog.create ();
      })

(* Empty both logs and drop their references, so a finished
   transaction keeps no value alive. *)
let finish t =
  for i = 0 to t.r_n - 1 do
    t.r_seen.(i) <- no_seen
  done;
  t.r_n <- 0;
  Wlog.clear t.writes

let begin_ () =
  let t = Domain.DLS.get key in
  finish t;
  let g = Atomic.get seqlock in
  (* Never block in begin: under an odd (held or stranded) lock start
     from the last even value, which is already stale, so the first
     read spins and revalidates where the re-run transaction body keeps
     stop flags observable.  Starting from the next even value instead
     would let a read of the old content pass as part of the writer's
     snapshot once the writer releases: a lost update. *)
  t.snap <- (if g land 1 = 0 then g else g - 1);
  t

let log_read t id r =
  if t.r_n = Array.length t.r_ids then begin
    let cap = 2 * t.r_n in
    let ids = Array.make cap (-1) and seen = Array.make cap no_seen in
    Array.blit t.r_ids 0 ids 0 t.r_n;
    Array.blit t.r_seen 0 seen 0 t.r_n;
    t.r_ids <- ids;
    t.r_seen <- seen
  end;
  t.r_ids.(t.r_n) <- id;
  t.r_seen.(t.r_n) <- r;
  t.r_n <- t.r_n + 1

let await_even () =
  let rec go budget =
    let v = Atomic.get seqlock in
    if v land 1 = 0 then v
    else if budget <= 0 then begin
      let m = Atomic.get Obs.armed in
      if m <> 0 then Obs.emit m Obs.Wait_budget (-1) (Atomic.get seq_owner);
      raise Conflict
    end
    else begin
      Domain.cpu_relax ();
      go (budget - 1)
    end
  in
  go spin_budget

(* Index of the newest read whose cell no longer holds the value seen,
   or -1. *)
let rec newest_invalid t i =
  if i < 0 then -1
  else
    match t.r_seen.(i) with
    | Seen (cell, v) ->
        if Atomic.get cell == v then newest_invalid t (i - 1) else i

(* Value-based revalidation: wait for a quiescent lock, re-check every
   read, and adopt the observed sequence number as the new snapshot if
   the lock did not move during the checks. *)
let rec revalidate t =
  let s = await_even () in
  let bad = newest_invalid t (t.r_n - 1) in
  if bad >= 0 then begin
    let m = Atomic.get Obs.armed in
    if m <> 0 then Obs.emit m Obs.Validation t.r_ids.(bad) (Atomic.get seq_owner);
    raise Conflict
  end;
  if Atomic.get seqlock = s then t.snap <- s else revalidate t

let rec sample t tv =
  let v = Atomic.get tv.content in
  if Atomic.get seqlock = t.snap then v
  else begin
    revalidate t;
    sample t tv
  end

let read (type a) t (tv : a tvar) : a =
  let i = Wlog.find t.writes tv.id in
  if i >= 0 then tv.proj (Wlog.value t.writes i) (* read-own-write *)
  else begin
    let m = Atomic.get Obs.armed in
    if m land Obs.reads <> 0 then Obs.fire m Obs.Read tv.id;
    let v = sample t tv in
    log_read t tv.id (Seen (tv.content, v));
    v
  end

let write (type a) t (tv : a tvar) (x : a) : unit =
  Wlog.add t.writes tv.handle (tv.inj x)

(* Acquire = validate: CAS the validated snapshot to odd, revalidating
   (and adopting newer snapshots) until it wins. *)
let rec acquire t =
  if not (Atomic.compare_and_set seqlock t.snap (t.snap + 1)) then begin
    revalidate t;
    acquire t
  end

let commit t =
  let w = t.writes in
  let n = Wlog.length w in
  if n = 0 then finish t
    (* read-only: the read set was kept snapshot-consistent *)
  else begin
    let m = Atomic.get Obs.armed in
    if m land Obs.decisions <> 0 then Obs.fire m Obs.Validate (-1);
    let t0 = if m land Obs.phases <> 0 then Obs.now m else 0 in
    acquire t;
    if m land Obs.stamping <> 0 then Atomic.set seq_owner (Obs.self ());
    let t1 = if m land Obs.phases <> 0 then Obs.lap m Obs.Validate_time t0 else 0 in
    (* Sequence lock held (odd): an [Abort] must restore it, a [Crash]
       deliberately leaves it odd — the stranded-seqlock adversary. *)
    (if m land Obs.decisions <> 0 then
       match Obs.decide m Obs.Pre_commit (-1) with
       | Obs.Proceed | Obs.Stall _ -> ()
       | Obs.Abort ->
           Atomic.set seqlock t.snap;
           raise Conflict
       | Obs.Crash -> raise Obs.Crashed);
    write_back w;
    Atomic.set seqlock (t.snap + 2);
    if m land Obs.phases <> 0 then ignore (Obs.lap m Obs.Publish_time t1);
    finish t;
    if m land Obs.decisions <> 0 then Obs.fire m Obs.Post_commit (-1)
  end

(* Conflict is only ever raised while the sequence lock is free (the
   held-lock window cannot fail except by deliberate chaos, which
   restores or strands it itself), so there is nothing to release. *)
let abort_cleanup t = finish t

(* A transaction that crashed between acquiring the sequence lock and
   publishing leaves it odd forever; once every transaction is finished
   or dead, bumping it to the next even value un-strands the core. *)
let recover () =
  let g = Atomic.get seqlock in
  if g land 1 = 1 then Atomic.set seqlock (g + 1);
  Atomic.set seq_owner (-1)

(* Content cells are only written under the sequence lock and each
   write is atomic; a single-location direct read is a committed (or
   just-committing) value either way. *)
let direct_read tv = Atomic.get tv.content
