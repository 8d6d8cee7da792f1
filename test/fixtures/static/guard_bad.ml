(* Fixture: seam dispatches outside the armed-word check, one per
   idiom, plus one suppressed by the allow escape. *)

let bad_fire m = Obs.fire m Obs.Read (-1) 0

let bad_emit m = Obs.emit m Obs.Commit (-1) 0

let bad_clock m = Obs.now m

let wrong_word flag m = if flag <> 0 then Obs.decide m Obs.Pre_commit else Obs.Proceed

let suppressed m =
  (* tmstatic: allow seam-guard *)
  Obs.fire m Obs.Read (-1) 0
