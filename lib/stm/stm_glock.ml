(* Global-lock serializer — the zoo's blocking baseline.

   One algorithm-global spinlock serializes every transaction: a
   transaction acquires it lazily at its first t-variable access and
   holds it until commit (or abort).  Writes are still buffered so an
   exception rolls the attempt back, but there is no validation and no
   per-t-variable locking: zero aborts under healthy contention, at
   the price of zero parallelism — and of the taxonomy's worst-case
   liveness: any transaction that stops while holding the serializer
   (a crash, a parasitic body) strands every peer.

   Peers never block on the stranded serializer, though: acquisition
   spins a bounded budget and then converts into [Conflict], so a
   starving domain keeps re-running its transaction body (where stop
   flags live) instead of deadlocking inside the runtime.

   Decision sites: [Lock_acquire] fires before each serializer
   acquisition attempt (holding nothing — this also keeps a starving
   peer's op clock ticking); [Read] fires before each read, *after*
   the serializer is held, so an in-transaction crash deterministically
   strands it; [Pre_commit] fires before write-back (serializer held);
   [Post_commit] after release.  [Validate] never fires: there is
   nothing to validate.

   Observation sites here are under static contract: every [Obs] site
   must match [Stm.Algo.sites] for Global_lock and sit behind the
   armed word (tmlive static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "global-lock"

(* 0 = free, 1 = held. *)
let big_lock = Atomic.make 0

(* A plain CAS spinlock is brutally unfair on real hardware: the
   releasing domain's cache owns the lock line, so its next acquisition
   beats any remote waiter's in-flight CAS almost every time, and with
   the facade's backoff growing on each failed attempt a waiter can be
   locked out for entire observation windows (measured: hundreds of
   thousands of failed CAS against a two-domain hot loop).  So waiters
   register themselves, and a domain that was the last holder yields a
   beat before competing again whenever someone is registered — long
   enough for a registered waiter's CAS to land in the free window. *)
let waiters = Atomic.make 0
let last_holder = Atomic.make (-1)
let yield_spins = 512

(* Blame identity of the current/last serializer holder: [last_holder]
   stores a raw [Domain.self] for the fairness yield and is useless
   for attribution, so the plan slot is tracked separately (written
   only while an observer stamps ownership). *)
let blame_holder = Atomic.make (-1)

(* One transaction record per domain, reused by every transaction the
   domain runs. *)
type txn = { mutable held : bool; writes : Wlog.t }

let key : txn Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { held = false; writes = Wlog.create () })

(* A crashed predecessor on this domain may have left the record
   holding (the serializer itself stays stranded until [recover]). *)
let begin_ () =
  let t = Domain.DLS.get key in
  t.held <- false;
  Wlog.clear t.writes;
  t

let release t =
  if t.held then begin
    t.held <- false;
    Atomic.set big_lock 0
  end

(* Acquire the serializer, bounded.  The [Lock_acquire] decision may
   raise [Conflict] or [Crashed] while we hold nothing; spin exhaustion
   raises [Conflict] (the facade's cleanup finds nothing held). *)
let ensure_locked t =
  if not t.held then begin
    let m = Atomic.get Obs.armed in
    if m land Obs.decisions <> 0 then Obs.fire m Obs.Lock_acquire (-1);
    let t0 = if m land Obs.phases <> 0 then Obs.now m else 0 in
    let me = (Domain.self () :> int) in
    if Atomic.get last_holder = me && Atomic.get waiters > 0 then
      for _ = 1 to yield_spins do
        Domain.cpu_relax ()
      done;
    if not (Atomic.compare_and_set big_lock 0 1) then begin
      Atomic.incr waiters;
      Fun.protect
        ~finally:(fun () -> Atomic.decr waiters)
        (fun () ->
          let rec spin budget =
            if Atomic.compare_and_set big_lock 0 1 then ()
            else if budget <= 0 then begin
              if m <> 0 then
                Obs.emit m Obs.Wait_budget (-1) (Atomic.get blame_holder);
              raise Conflict
            end
            else begin
              Domain.cpu_relax ();
              spin (budget - 1)
            end
          in
          spin spin_budget)
    end;
    Atomic.set last_holder me;
    if m land Obs.stamping <> 0 then Atomic.set blame_holder (Obs.self ());
    t.held <- true;
    if m land Obs.phases <> 0 then ignore (Obs.lap m Obs.Lock_time t0)
  end

let read (type a) t (tv : a tvar) : a =
  let i = Wlog.find t.writes tv.id in
  if i >= 0 then tv.proj (Wlog.value t.writes i) (* read-own-write *)
  else begin
    ensure_locked t;
    let m = Atomic.get Obs.armed in
    if m land Obs.reads <> 0 then Obs.fire m Obs.Read tv.id;
    Atomic.get tv.content
  end

let write (type a) t (tv : a tvar) (x : a) : unit =
  ensure_locked t;
  Wlog.add t.writes tv.handle (tv.inj x)

let commit t =
  let m = Atomic.get Obs.armed in
  (* [Pre_commit] holds the serializer: [Abort] releases it (an
     ordinary conflict), [Crash] deliberately does not. *)
  (if m land Obs.decisions <> 0 then
     match Obs.decide m Obs.Pre_commit (-1) with
     | Obs.Proceed | Obs.Stall _ -> ()
     | Obs.Abort ->
         release t;
         raise Conflict
     | Obs.Crash -> raise Obs.Crashed);
  let w = t.writes in
  if Wlog.length w > 0 then begin
    let t0 = if m land Obs.phases <> 0 then Obs.now m else 0 in
    write_back w;
    if m land Obs.phases <> 0 then ignore (Obs.lap m Obs.Publish_time t0)
  end;
  Wlog.clear w;
  release t;
  if m land Obs.decisions <> 0 then Obs.fire m Obs.Post_commit (-1)

let abort_cleanup t =
  Wlog.clear t.writes;
  release t

(* A domain that crashed (or is abandoned) while holding the serializer
   strands it process-wide; recovery is simply dropping it (plus the
   fairness bookkeeping, which only ever named now-dead domains). *)
let recover () =
  Atomic.set big_lock 0;
  Atomic.set waiters 0;
  Atomic.set last_holder (-1);
  Atomic.set blame_holder (-1)

(* A single-location atomic read needs no seqlock here: content is only
   written under the serializer and each write is itself atomic. *)
let direct_read tv = Atomic.get tv.content
