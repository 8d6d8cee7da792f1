(* Fixture: a core whose reachable sites match the facade announcement
   for Mini exactly (Begin/Commit/Abort come from the facade, Published
   from the substrate's write_back). *)

let read tv =
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.fire m Obs.Read tv 0;
  Atomic.get tv

let commit ~aggressor ~tvar w =
  let m = Atomic.get Obs.armed in
  if m <> 0 then Obs.emit m Obs.Validation tvar aggressor;
  write_back w
