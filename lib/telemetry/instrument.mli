(** Cheap, contention-free instruments.

    Counters and histograms keep one cell per writing domain: a
    write is a plain update of the writer's own cell (no atomic RMW, no
    cache line shared with another writer) and allocates nothing after
    the domain's first write; reading an instrument sums the cells.
    Reads race with writes: they may miss the latest updates of a
    running writer, never tear, and are exact once the writers are
    joined. *)

val max_writers : int
(** 128, the runtime's limit on live domains: every live domain holds
    one writer slot. *)

(** {2 Counters} *)

type counter
(** A monotone counter. *)

val counter : unit -> counter
val incr : counter -> unit
val add : counter -> int -> unit

val value : counter -> int
(** Sum over the writers' cells.  Not a linearizable snapshot of
    concurrent increments, but exact for a quiesced counter and always
    monotone for monotone updates. *)

(** {2 Gauges} *)

type gauge

val gauge : ?init:int -> unit -> gauge
val set_gauge : gauge -> int -> unit
val gauge_value : gauge -> int

(** {2 Histograms}

    Log2-bucketed, same bucket rule as {!Tm_sim.Metrics}: bucket 0
    counts value 0 (and negatives), bucket [k >= 1] counts
    [\[2^(k-1), 2^k)], the last bucket overflows.  {!hist_buckets}
    buckets cover nanosecond latencies up to about one second. *)

val hist_buckets : int
(** 32. *)

val bucket_of : int -> int
(** The bucket index a value lands in. *)

val bucket_upper : int -> int
(** Inclusive upper bound of a bucket: 0 for bucket 0, [2^k - 1] for
    bucket [k], [max_int] for the overflow bucket. *)

type histogram

val histogram : unit -> histogram
val observe : histogram -> int -> unit

val absorb :
  histogram -> buckets:int array -> sum:int -> max_sample:int -> unit
(** Add a pre-bucketed histogram (same log2 bucket rule, possibly fewer
    buckets — e.g. a {!Tm_sim.Metrics.histogram}) into this one.  The
    source's last bucket is an overflow bucket: its samples are only
    known to exceed the source's range, so they are preserved into this
    histogram's own overflow bucket (never folded into the same-index
    range bucket, which would under-read them). *)

type hsnap = {
  buckets : int array;  (** [hist_buckets] summed bucket counts *)
  count : int;
  sum : int;
  max_sample : int;
}
(** A point-in-time summation of a histogram's cells. *)

val hist_snapshot : histogram -> hsnap

val quantile : hsnap -> float -> int
(** [quantile snap q] for [q] in [0, 1]: the inclusive upper bound of
    the bucket holding the rank-[ceil (q * count)] sample, clamped to
    [max_sample] (so quantiles are monotone in [q] and never exceed the
    maximum).  0 for an empty snapshot. *)

val hsnap_mean : hsnap -> float

val pp_hsnap : Format.formatter -> hsnap -> unit
(** One line: p50/p90/p99/max, count and mean; ["(empty)"] when the
    snapshot holds no samples. *)

(** {2 High-resolution histograms}

    Log2 buckets bound the relative error of a reported quantile by a
    factor of 2 — too coarse for the p99.9/p99.99 tail quantiles the
    open-loop latency recorder gates on.  A hires histogram splits
    every log2 decade into {!hires_sub} linear sub-buckets (relative
    error at most [1/hires_sub] = 12.5%): values below {!hires_sub}
    are exact, values at or above [2^hires_log_max] (~18 minutes in
    nanoseconds) overflow.  Same per-writer cells as the log2
    histograms. *)

val hires_sub : int
(** 8 linear sub-buckets per log2 decade. *)

val hires_log_max : int
(** 40: the first overflowing power of two. *)

val hires_buckets : int
(** 305. *)

val hires_bucket_of : int -> int
(** The hires bucket index a value lands in. *)

val hires_bucket_upper : int -> int
(** Inclusive upper bound of a hires bucket: 0 for bucket 0, [max_int]
    for the overflow bucket; monotone in the index. *)

type hires

val hires : unit -> hires
val hires_observe : hires -> int -> unit

val hires_snapshot : hires -> hsnap
(** Same snapshot record as the log2 histograms, with
    [Array.length buckets = hires_buckets]; use {!hires_quantile}
    (never {!quantile}) on it. *)

val hires_quantile : hsnap -> float -> int
(** Like {!quantile} under the hires bucket bounds: the inclusive upper
    bound of the bucket holding the rank-[ceil (q * count)] sample,
    clamped to [max_sample]. *)

val pp_hires_snap : Format.formatter -> hsnap -> unit
(** One line: p50/p90/p99/p99.9/p99.99/max, count and mean. *)
