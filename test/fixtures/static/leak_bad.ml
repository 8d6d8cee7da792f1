(* Fixture: seam subscriptions with no paired release in the same
   top-level definition; the allow-commented one is suppressed. *)

let chaos_leak () =
  Stm.Chaos.install (fun _ -> Stm.Chaos.Proceed);
  run_workload ()

let observer_leak_despite_other_release () =
  let s = Stm.Obs.subscribe (fun _ _ _ -> ()) in
  run_workload s;
  Stm.Trace.stop ()

let suppressed_leak reg =
  (* tmstatic: allow armed-leak *)
  ignore (Tm_telemetry.Stm_probe.install reg);
  run_workload ()
