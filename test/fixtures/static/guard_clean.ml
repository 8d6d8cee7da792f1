(* Fixture: every dispatch idiom the repo uses, each dominated by the
   armed-word check — let-bound word, direct load, bit test,
   conjunction, and the check flowing into a closure. *)

let let_bound tv =
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.fire m Obs.Read tv 0;
  let t0 = if m <> 0 then Obs.now m else 0 in
  if m <> 0 then ignore (Obs.lap m Obs.Lock_time t0)

let direct () =
  if Atomic.get Obs.armed <> 0 then Obs.emit (Atomic.get Obs.armed) Obs.Commit (-1) 0

let bit_test owner =
  let m = Atomic.get Obs.armed in
  if m land Obs.stamping <> 0 then Obs.emit m Obs.Stolen 0 owner

let conjunction stolen =
  let m = Atomic.get Obs.armed in
  if stolen && m <> 0 then Obs.emit m Obs.Stolen 0 1

let closure entries =
  let m = Atomic.get Obs.armed in
  if m <> 0 then List.iter (fun e -> Obs.emit m Obs.Published e 0) entries
