(* TL2 over OCaml 5 atomics — the default core of the zoo.

   A global version clock, per-t-variable versioned spinlocks, deferred
   updates, commit-time lock acquisition in canonical order and
   read-set validation.  Readers use the classic seqlock protocol
   (read vlock, read content, read vlock again) and validate against
   the transaction's read version.  Progressive in the
   Kuznetsov–Ravi sense: a transaction aborts only on a real data
   conflict (or a chaos fault).

   Observation sites here are under static contract: every [Obs] site
   must match [Stm.Algo.sites] for Tl2 and sit behind the armed word
   (tmlive static: seam-contract/seam-guard). *)

open Stm_core

let algo_name = "tl2"
let clock = Atomic.make 0

(* One transaction record per domain (held by the facade's descriptor),
   reused by every transaction the domain runs: the read log is two
   flat arrays of (handle, version seen), appended in read order; the
   write log is the shared [Wlog], already in canonical lock order.
   Reading and writing therefore allocate nothing but the injected
   write values. *)
type txn = {
  mutable rv : int;
  mutable r_hs : handle array;
  mutable r_vers : int array;
  mutable r_n : int;
  writes : Wlog.t;
}

let create () =
  {
    rv = 0;
    r_hs = Array.make Wlog.initial_capacity no_handle;
    r_vers = Array.make Wlog.initial_capacity 0;
    r_n = 0;
    writes = Wlog.create ();
  }

(* Empty both logs; the write log drops its buffered values.  The read
   log holds only handles and versions, left in place until reused (see
   [Wlog]). *)
let finish t =
  t.r_n <- 0;
  Wlog.clear t.writes

(* [finish] again because a crashed predecessor on this domain never
   reached cleanup. *)
let begin_ t =
  finish t;
  t.rv <- Atomic.get clock

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
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.emit m Obs.Read_conflict tv.id (Atomic.get tv.owner);
  raise Conflict

let read (type a) t (tv : a tvar) : a =
  let i = Wlog.find t.writes tv.id in
  if i >= 0 then tv.proj (Wlog.value t.writes i) (* read-own-write *)
  else begin
    let m = Atomic.get Obs.armed in
    if m land Obs.reads <> 0 then Obs.fire m Obs.Read tv.id;
    let v1 = read_vlock tv in
    if locked v1 || version_of v1 > t.rv then read_conflict tv;
    let x = Atomic.get tv.content in
    if read_vlock tv <> v1 then read_conflict tv;
    log_read t tv.handle (version_of v1);
    x
  end

let write (type a) t (tv : a tvar) (x : a) : unit =
  Wlog.add t.writes tv.handle (tv.inj x)

(* Release one commit lock.  The event is emitted before the real
   unlock: once the vlock is even another domain can acquire it, and
   its [Locked] event must sequence after ours. *)
let unlock (h : handle) =
  let m = Atomic.get Obs.armed in
  if m land Obs.locks <> 0 then Obs.emit m Obs.Released h.h_id 0;
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

(* A decision site inside commit: [Abort] backs out held locks like any
   conflict; [Crash] deliberately does not — a crashed lock holder is
   the experiment. *)
let decision w held site tvar =
  let m = Atomic.get Obs.armed in
  if m land Obs.decisions <> 0 then
    match Obs.decide m site tvar with
    | Obs.Proceed | Obs.Stall _ -> ()
    | Obs.Abort ->
        release_newest_first w held;
        raise Conflict
    | Obs.Crash -> raise Obs.Crashed

(* Lock in canonical (id) order from entry [k]; back out on failure. *)
let rec lock_from w k =
  if k < Wlog.length w then begin
    let h = Wlog.handle w k in
    decision w k Obs.Lock_acquire h.h_id;
    let v = Atomic.get h.h_vlock in
    let m = Atomic.get Obs.armed in
    if (not (locked v)) && Atomic.compare_and_set h.h_vlock v (v lor 1) then begin
      if m land Obs.locks <> 0 then Obs.emit m Obs.Locked h.h_id k;
      (* Stamp ownership only for an attributing observer: the word
         then names the last lock holder / committed writer of the
         t-variable, which is who its next victim blames. *)
      if m land Obs.stamping <> 0 then Atomic.set h.h_owner (Obs.self ());
      lock_from w (k + 1)
    end
    else begin
      if m <> 0 then Obs.emit m Obs.Lock_busy h.h_id (Atomic.get h.h_owner);
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
    let m = Atomic.get Obs.armed in
    let t0 = if m land Obs.phases <> 0 then Obs.now m else 0 in
    lock_from w 0;
    let t1 = if m land Obs.phases <> 0 then Obs.lap m Obs.Lock_time t0 else 0 in
    let wv = Atomic.fetch_and_add clock 1 + 1 in
    decision w n Obs.Validate (-1);
    let bad = newest_invalid t (t.r_n - 1) in
    if bad >= 0 then begin
      let h = t.r_hs.(bad) in
      if m <> 0 then Obs.emit m Obs.Validation h.h_id (Atomic.get h.h_owner);
      release_in_order w n;
      raise Conflict
    end;
    let t2 = if m land Obs.phases <> 0 then Obs.lap m Obs.Validate_time t1 else 0 in
    decision w n Obs.Pre_commit (-1);
    (* Publishing a t-variable also releases its lock (the vlock is set
       to the new even version).  The event is emitted while the lock
       is still really held, so that a competing domain's [Locked] can
       only sequence after it. *)
    for i = 0 to n - 1 do
      let h = Wlog.handle w i in
      if m land Obs.locks <> 0 then Obs.emit m Obs.Published h.h_id 0;
      h.h_set (Wlog.value w i);
      Atomic.set h.h_vlock (wv lsl 1)
    done;
    if m land Obs.phases <> 0 then ignore (Obs.lap m Obs.Publish_time t2);
    finish t;
    if m land Obs.decisions <> 0 then Obs.fire m Obs.Post_commit (-1)
  end

(* TL2 holds commit vlocks only inside [commit], and [commit] releases
   them on every [Conflict] path itself; nothing is ever left held when
   the facade sees an abort, so cleanup only empties the logs. *)
let abort_cleanup t = finish t

(* No core-global lock state: a crashed commit's stranded vlocks live
   on the run's own t-variables, recovered by dropping them. *)
let recover () = ()
let direct_read tv = snapshot_read tv
