(* Fixture: a core that violates the Mini announcement both ways — it
   emits Obs.Validate (unannounced) and reaches neither Obs.Read,
   Obs.Validation nor Obs.Published (all announced). *)

let read tv =
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.fire m Obs.Validate tv 0;
  Atomic.get tv
