(* TL2 over OCaml 5 atomics — the default core of the zoo.

   A global version clock, per-t-variable versioned spinlocks, deferred
   updates, commit-time lock acquisition in canonical order and
   read-set validation.  Readers use the classic seqlock protocol
   (read vlock, read content, read vlock again) and validate against
   the transaction's read version.  Progressive in the
   Kuznetsov–Ravi sense: a transaction aborts only on a real data
   conflict (or a chaos fault).

   Seam sites here are under static contract: every Tel/Chaos/Blame
   emission must match [Stm.Algo]'s announcement for Tl2 and sit
   behind its armed guard (tmlive static: seam-contract/seam-guard). *)

open Stm_core
module Tev = Tm_trace.Trace_event

let algo_name = "tl2"
let clock = Atomic.make 0

(* One transaction record per domain, reused by every transaction the
   domain runs: the read log is two flat arrays of (handle, version
   seen), appended in read order; the write log is the shared [Wlog],
   already in canonical lock order.  Reading and writing therefore
   allocate nothing but the injected write values. *)
type txn = {
  mutable rv : int;
  mutable r_hs : handle array;
  mutable r_vers : int array;
  mutable r_n : int;
  writes : Wlog.t;
}

let key : txn Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        rv = 0;
        r_hs = Array.make Wlog.initial_capacity no_handle;
        r_vers = Array.make Wlog.initial_capacity 0;
        r_n = 0;
        writes = Wlog.create ();
      })

(* Empty both logs; the write log drops its buffered values.  The read
   log holds only handles and versions, left in place until reused (see
   [Wlog]). *)
let finish t =
  t.r_n <- 0;
  Wlog.clear t.writes

(* [finish] again because a crashed predecessor on this domain never
   reached cleanup. *)
let begin_ () =
  let t = Domain.DLS.get key in
  finish t;
  t.rv <- Atomic.get clock;
  t

let log_read t h version =
  if t.r_n = Array.length t.r_hs then begin
    let cap = 2 * t.r_n in
    let hs = Array.make cap no_handle and vers = Array.make cap 0 in
    Array.blit t.r_hs 0 hs 0 t.r_n;
    Array.blit t.r_vers 0 vers 0 t.r_n;
    t.r_hs <- hs;
    t.r_vers <- vers
  end;
  t.r_hs.(t.r_n) <- h;
  t.r_vers.(t.r_n) <- version;
  t.r_n <- t.r_n + 1

let read_conflict tv =
  if Atomic.get Blame.armed then
    Blame.emit ~aggressor:(Atomic.get tv.owner) ~tvar:tv.id Blame.Read_conflict;
  raise Conflict

let read (type a) t (tv : a tvar) : a =
  let i = Wlog.find t.writes tv.id in
  if i >= 0 then tv.proj (Wlog.value t.writes i) (* read-own-write *)
  else begin
    if Atomic.get Chaos.armed then Chaos.fire Chaos.Read;
    if Atomic.get Tel.armed then (Atomic.get Tel.probe).Tel.count Tel.Read;
    let v1 = read_vlock tv in
    if locked v1 || version_of v1 > t.rv then read_conflict tv;
    let x = Atomic.get tv.content in
    if read_vlock tv <> v1 then read_conflict tv;
    log_read t tv.handle (version_of v1);
    x
  end

let write (type a) t (tv : a tvar) (x : a) : unit =
  Wlog.add t.writes tv.handle (tv.inj x)

(* Release one commit lock.  The release event is emitted before the
   real unlock: once the vlock is even another domain can acquire it,
   and its acquire event must sequence after ours. *)
let unlock (h : handle) =
  if Atomic.get Trace.tracing then
    Trace.emit Tev.Lock "release" Tev.Instant [ ("tvar", Tev.Int h.h_id) ];
  let v = Atomic.get h.h_vlock in
  if locked v then Atomic.set h.h_vlock (v land lnot 1)

(* The commit locks held are always a prefix [0, held) of the write
   log.  Conflict back-outs release newest first; a failed validation
   releases in acquisition order. *)
let release_newest_first w held =
  for i = held - 1 downto 0 do
    unlock (Wlog.handle w i)
  done

let release_in_order w held =
  for i = 0 to held - 1 do
    unlock (Wlog.handle w i)
  done

(* Chaos interception inside commit: [Abort] backs out held locks like
   any conflict; [Crash] deliberately does not — a crashed lock holder
   is the experiment. *)
let chaos w held p =
  if Atomic.get Chaos.armed then
    match Chaos.decide p with
    | Chaos.Proceed -> ()
    | Chaos.Stall n -> Chaos.stall n
    | Chaos.Abort ->
        release_newest_first w held;
        raise Conflict
    | Chaos.Crash -> raise Chaos.Crashed

(* Lock in canonical (id) order from entry [k]; back out on failure. *)
let rec lock_from w k =
  if k < Wlog.length w then begin
    chaos w k Chaos.Lock_acquire;
    let h = Wlog.handle w k in
    let v = Atomic.get h.h_vlock in
    if (not (locked v)) && Atomic.compare_and_set h.h_vlock v (v lor 1) then begin
      if Atomic.get Trace.tracing then
        Trace.emit Tev.Lock "acquire" Tev.Instant
          [ ("tvar", Tev.Int h.h_id); ("order", Tev.Int k) ];
      (* Stamp ownership only when blame is armed: the word then names
         the last lock holder / committed writer of the t-variable,
         which is who its next victim blames. *)
      if Atomic.get Blame.armed then Atomic.set h.h_owner (Blame.self ());
      lock_from w (k + 1)
    end
    else begin
      if Atomic.get Trace.tracing then
        Trace.emit Tev.Lock "busy" Tev.Instant [ ("tvar", Tev.Int h.h_id) ];
      if Atomic.get Blame.armed then
        Blame.emit ~aggressor:(Atomic.get h.h_owner) ~tvar:h.h_id
          Blame.Lock_busy;
      release_newest_first w k;
      raise Conflict
    end
  end

(* Index of the newest read whose t-variable moved past what this
   transaction saw (or is locked by someone else), or -1. *)
let rec newest_invalid t i =
  if i < 0 then -1
  else
    let h = t.r_hs.(i) in
    let v = Atomic.get h.h_vlock in
    let ok_lock = (not (locked v)) || Wlog.find t.writes h.h_id >= 0 in
    if ok_lock && version_of v <= t.rv && version_of v = t.r_vers.(i) then
      newest_invalid t (i - 1)
    else i

let commit t =
  let w = t.writes in
  let n = Wlog.length w in
  if n = 0 then finish t
    (* read-only: reads were validated against rv as they happened *)
  else begin
    let tel = Atomic.get Tel.armed in
    let tp = if tel then Atomic.get Tel.probe else Tel.null_probe in
    let t0 = if tel then tp.Tel.now () else 0 in
    lock_from w 0;
    let t1 =
      if tel then begin
        let t = tp.Tel.now () in
        tp.Tel.observe Tel.Lock (t - t0);
        t
      end
      else 0
    in
    let wv = Atomic.fetch_and_add clock 1 + 1 in
    chaos w n Chaos.Validate;
    let bad = newest_invalid t (t.r_n - 1) in
    if bad >= 0 then begin
      let h = t.r_hs.(bad) in
      if Atomic.get Trace.tracing then
        Trace.emit Tev.Validation "read-invalid" Tev.Instant
          [ ("tvar", Tev.Int h.h_id) ];
      if Atomic.get Blame.armed then
        Blame.emit ~aggressor:(Atomic.get h.h_owner) ~tvar:h.h_id
          Blame.Validation;
      release_in_order w n;
      raise Conflict
    end;
    let t2 =
      if tel then begin
        let t = tp.Tel.now () in
        tp.Tel.observe Tel.Validate (t - t1);
        t
      end
      else 0
    in
    chaos w n Chaos.Pre_commit;
    (* Publishing a t-variable also releases its lock (the vlock is set
       to the new even version), hence the paired release event.  Both
       events are emitted while the lock is still really held so that a
       competing domain's acquire event can only sequence after them. *)
    for i = 0 to n - 1 do
      let h = Wlog.handle w i in
      if Atomic.get Trace.tracing then begin
        Trace.emit Tev.Txn "publish" Tev.Instant [ ("tvar", Tev.Int h.h_id) ];
        Trace.emit Tev.Lock "release" Tev.Instant [ ("tvar", Tev.Int h.h_id) ]
      end;
      h.h_set (Wlog.value w i);
      Atomic.set h.h_vlock (wv lsl 1)
    done;
    if tel then tp.Tel.observe Tel.Publish (tp.Tel.now () - t2);
    finish t;
    if Atomic.get Chaos.armed then Chaos.fire Chaos.Post_commit
  end

(* TL2 holds commit vlocks only inside [commit], and [commit] releases
   them on every [Conflict] path itself; nothing is ever left held when
   the facade sees an abort, so cleanup only empties the logs. *)
let abort_cleanup t = finish t

(* No core-global lock state: a crashed commit's stranded vlocks live
   on the run's own t-variables, recovered by dropping them. *)
let recover () = ()
let direct_read tv = snapshot_read tv
