(** Instrumenting the real STM: an {!Tm_stm.Stm.Obs} observer feeding
    the registry.

    Registers [tm_stm_begins_total] / [tm_stm_reads_total] /
    [tm_stm_commits_total] / [tm_stm_aborts_total] counters and
    nanosecond phase-latency histograms [tm_stm_lock_acquire_ns] /
    [tm_stm_validate_ns] / [tm_stm_publish_ns] / [tm_stm_commit_ns] /
    [tm_stm_abort_ns], then subscribes.  [tm_stm_reads_total] counts
    the seam's [Read] site: reads other than read-own-writes, counted
    before validation, so a read that then conflicts is counted.  While
    nothing is subscribed the STM hot path pays one atomic load per
    site; subscribed, each event is a few sharded atomic RMWs, and the
    timed phases of an attempt share one chain of monotonic clock
    readings (each reading ends one phase and starts the next). *)

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

val ns_clock : unit -> int
(** CLOCK_MONOTONIC in nanoseconds (bechamel's stubs). *)

val register : Registry.t -> t
(** Register the instruments without arming the probe. *)

val observer : t -> Tm_stm.Stm.Obs.site -> int -> int -> unit
(** The observer feeding [t]: [Begin]/[Read] counted, [Lock_time] /
    [Validate_time] / [Publish_time] / [Commit] / [Abort] and [Retry]
    durations observed. *)

val install : ?clock:(unit -> int) -> Registry.t -> t
(** {!register}, then subscribe its {!observer} with [clock] (default
    {!ns_clock}).  Replaces any probe installed before. *)

val uninstall : unit -> unit
(** Unsubscribe the installed probe (idempotent). *)
