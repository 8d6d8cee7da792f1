(* Fixture: every subscribe/release pairing the leak rule accepts —
   direct uninstall, ~finally-bound release, Stm.recover, Trace.stop
   and Obs.unsubscribe. *)

let chaos_paired () =
  Stm.Chaos.install (fun _ -> Stm.Chaos.Proceed);
  run_workload ();
  Stm.Chaos.uninstall ()

let probe_finally reg =
  ignore (Tm_telemetry.Stm_probe.install reg);
  Fun.protect ~finally:Tm_telemetry.Stm_probe.uninstall run_workload

let blame_recover sink =
  Stm.Blame.install sink;
  run_workload ();
  Stm.recover ()

let trace_paired () =
  Stm.Trace.start ();
  run_workload ();
  Stm.Trace.stop ()

let observer_paired () =
  let s = Stm.Obs.subscribe (fun _ _ _ -> ()) in
  run_workload ();
  Stm.Obs.unsubscribe s
