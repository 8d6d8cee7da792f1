(* Publishing sweep results into a registry.

   Results are published post-hoc, one scrape per run, in canonical
   grid order with the run index as timestamp — never live from the
   pool's worker domains, which would make the time series depend on
   scheduling.  Byte-identical output for every --jobs value follows
   from the sweep engine's own determinism guarantee (equal result
   lists in canonical order). *)

module Sweep = Tm_sim.Sweep
module Metrics = Tm_sim.Metrics

type t = {
  sampler : Sampler.t;
  runs : Instrument.counter;
  commits : Instrument.counter;
  aborts : Instrument.counter;
  invocations : Instrument.counter;
  defers : Instrument.counter;
  faults : Instrument.counter;
  starvations : Instrument.counter;
  events : Instrument.counter;
  steps : Instrument.counter;
  commit_latency : Instrument.histogram;
  retry_depth : Instrument.histogram;
}

let create ?(consumers = []) reg =
  let c name help = Registry.counter reg ~help name in
  let h name help = Registry.histogram reg ~help name in
  {
    sampler = Sampler.create ~consumers ~clock:(fun () -> 0) reg;
    runs = c "tm_sweep_runs_total" "Sweep runs published";
    commits = c "tm_sweep_commits_total" "Committed transactions, all runs";
    aborts = c "tm_sweep_aborts_total" "Aborted transactions, all runs";
    invocations = c "tm_sweep_invocations_total" "Invocations, all runs";
    defers = c "tm_sweep_defers_total" "Deferred polls, all runs";
    faults =
      c "tm_sweep_faults_total"
        "Processes looking crashed or parasitic (empirical window reading)";
    starvations =
      c "tm_sweep_starvations_total"
        "Processes looking starving (empirical window reading)";
    events = c "tm_sweep_events_total" "History events, all runs";
    steps = c "tm_sweep_steps_total" "Simulation steps, all runs";
    commit_latency =
      h "tm_sweep_commit_latency_events"
        "Commit latency in history events (merged over runs)";
    retry_depth =
      h "tm_sweep_retry_depth"
        "Consecutive aborts before each commit (merged over runs)";
  }

let absorb_hist h (mh : Metrics.histogram) =
  Instrument.absorb h ~buckets:mh.Metrics.buckets ~sum:mh.Metrics.sum
    ~max_sample:mh.Metrics.max_sample

let publish t ~index (r : Sweep.result) =
  let m = r.Sweep.r_metrics in
  Instrument.incr t.runs;
  Instrument.add t.commits m.Metrics.commits;
  Instrument.add t.aborts m.Metrics.aborts;
  Instrument.add t.invocations m.Metrics.invocations;
  Instrument.add t.defers m.Metrics.defers;
  Instrument.add t.faults m.Metrics.faults;
  Instrument.add t.starvations m.Metrics.starvations;
  Instrument.add t.events m.Metrics.events;
  Instrument.add t.steps m.Metrics.steps;
  absorb_hist t.commit_latency m.Metrics.commit_latency;
  absorb_hist t.retry_depth m.Metrics.retry_depth;
  Sampler.tick ~ts:index t.sampler

let publish_all t results =
  List.iteri (fun i r -> ignore (publish t ~index:i r)) results;
  Sampler.last t.sampler
