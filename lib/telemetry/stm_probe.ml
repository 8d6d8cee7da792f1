(* The bridge from the [Stm.Obs] seam to the registry: event counters
   for the begin/read/commit/abort sites and nanosecond phase-latency
   histograms for the commit protocol.  The clock is bechamel's
   monotonic_clock stubs (CLOCK_MONOTONIC in nanoseconds) — tm_stm
   itself stays clock-agnostic; the unit enters here. *)

module Stm = Tm_stm.Stm

let ns_clock () = Int64.to_int (Monotonic_clock.now ())

type t = {
  begins : Instrument.counter;
  reads : Instrument.counter;
  commits : Instrument.counter;
  aborts : Instrument.counter;
  lock_ns : Instrument.histogram;
  validate_ns : Instrument.histogram;
  publish_ns : Instrument.histogram;
  commit_ns : Instrument.histogram;
  abort_ns : Instrument.histogram;
}

let register reg =
  let c name help = Registry.counter reg ~help name in
  let h name help = Registry.histogram reg ~help name in
  {
    begins =
      c "tm_stm_begins_total" "Transaction attempts started (one per retry)";
    reads =
      c "tm_stm_reads_total"
        "Transactional reads other than read-own-writes, counted before \
         validation (a read that then conflicts is counted)";
    commits = c "tm_stm_commits_total" "Transaction attempts that committed";
    aborts = c "tm_stm_aborts_total" "Transaction attempts that aborted";
    lock_ns =
      h "tm_stm_lock_acquire_ns"
        "Commit-time write-set vlock acquisition latency (write commits)";
    validate_ns =
      h "tm_stm_validate_ns"
        "Commit-time read-set validation latency (write commits)";
    publish_ns =
      h "tm_stm_publish_ns"
        "Commit-time publish-and-release latency (write commits)";
    commit_ns =
      h "tm_stm_commit_ns" "Whole-attempt latency of committed attempts";
    abort_ns = h "tm_stm_abort_ns" "Whole-attempt latency of aborted attempts";
  }

let observer t =
 fun site _tvar d ->
  match site with
  | Stm.Obs.Begin -> Instrument.incr t.begins
  | Stm.Obs.Read -> Instrument.incr t.reads
  | Stm.Obs.Lock_time -> Instrument.observe t.lock_ns d
  | Stm.Obs.Validate_time -> Instrument.observe t.validate_ns d
  | Stm.Obs.Publish_time -> Instrument.observe t.publish_ns d
  | Stm.Obs.Commit ->
      Instrument.incr t.commits;
      Instrument.observe t.commit_ns d
  | Stm.Obs.Abort | Stm.Obs.Retry ->
      Instrument.incr t.aborts;
      Instrument.observe t.abort_ns d
  | _ -> ()

let current : Stm.Obs.subscription option Atomic.t = Atomic.make None

let install ?(clock = ns_clock) reg =
  let t = register reg in
  let s =
    Stm.Obs.subscribe ~clock
      ~sites:
        Stm.Obs.[ Begin; Read; Lock_time; Validate_time; Publish_time; Commit; Abort; Retry ]
      (observer t)
  in
  Option.iter Stm.Obs.unsubscribe (Atomic.exchange current (Some s));
  t

let uninstall () = Option.iter Stm.Obs.unsubscribe (Atomic.exchange current None)
