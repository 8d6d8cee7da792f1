(** The serving path: per-domain executors over a {!Store}, driven by a
    deterministic {!Workload} population, with admission control.  Every
    admitted request commits as exactly one transaction.

    {2 Determinism discipline}

    A real multicore run cannot make its interleaving deterministic, so
    — exactly like the chaos subsystem — the canonical artifacts carry
    only plan-determined data: which requests exist, which are admitted
    (the virtual bounded queue below is a pure function of each
    domain's request stream), per-kind admitted counts, how many
    mutators committed through the journal, and the conservation
    invariant of the counter plane.  Wall-clock throughput, latency
    quantiles and commit/abort totals are real measurements and
    therefore {e informational}: they appear in the human summary and
    in [BENCH_serve.json], never in the canonical JSON or the canonical
    telemetry scrape.

    {2 Admission}

    Each executor runs a virtual bounded queue in abstract cost units:
    before each request it drains {!drain_units}, then admits the
    request iff the queued cost stays within [queue_cap], else sheds
    it.  Costs come from {!Workload.shape_cost}.  The model is
    deterministic per domain, so shed counts are part of the canonical
    output — a read-mostly profile sheds nothing, the long-transaction
    profile is the overload regime.

    Admission runs before generation: an executor draws only the
    request's shape, decides, and fills the shape's ops into its
    per-domain op buffer only if the request is admitted, then runs the
    buffer with {!Store.exec_buf} through one [Stm.atomically_tx] body
    built before the loop.  A shed request costs one draw and no
    allocation.  A put takes the same path as every other kind. *)

val drain_units : int
(** Queue units drained per arriving request (12). *)

type config = {
  c_profile : Workload.profile;
  c_algo : Tm_stm.Stm.Algo.t;
  c_seed : int;
  c_domains : int;
  c_clients : int;  (** simulated client population *)
  c_ops : int;  (** closed-loop rounds: requests per client *)
  c_keys : int;
  c_stripes : int;
  c_journal : bool;
  c_queue_cap : int;  (** admission capacity in cost units *)
  c_arrival : Arrival.t option;
      (** open-loop arrival clock; [None] = closed loop (dispatch as
          fast as the executors run) *)
}

val config :
  ?algo:Tm_stm.Stm.Algo.t ->
  ?clients:int ->
  ?ops:int ->
  ?keys:int ->
  ?stripes:int ->
  ?journal:bool ->
  ?queue_cap:int ->
  ?arrival:Arrival.t ->
  profile:Workload.profile ->
  seed:int ->
  domains:int ->
  unit ->
  config
(** Defaults: tl2, 10000 clients, 4 ops/client, 1024 keys, 64 stripes,
    journal off, queue_cap 2048, closed loop.
    @raise Invalid_argument on [domains < 1], [clients < domains],
    [ops < 1], [keys < 4] or [queue_cap < 1]. *)

val workload : config -> Workload.t
val total_requests : config -> int
(** [clients * ops]. *)

val iter_requests :
  config ->
  Workload.t ->
  domain:int ->
  f:(client:int -> index:int -> Workload.request -> admitted:bool -> unit) ->
  unit
(** The full request stream of one executor domain (clients congruent
    to [domain mod c_domains], round-major) with the admission model's
    verdicts, each request materialized as a {!Workload.request}.  It
    runs the executors' own admission loop, so both see the same
    verdicts; the list view is for replays and conformance checks. *)

(** {2 Serving a profile} *)

type lat = { l_kind : string; l_snap : Tm_telemetry.Instrument.hsnap }

type per_domain = {
  d_requests : int;
  d_admitted : int;
  d_shed : int;
  d_mutators : int;
}

type outcome = {
  s_config : config;
  (* canonical (plan-determined) *)
  s_requests : int;
  s_admitted : int;
  s_shed : int;
  s_batched : int;
      (** always 0: every admitted request commits its own transaction *)
  s_mutators : int;  (** admitted mutating requests *)
  s_by_kind : (string * int) list;  (** admitted, in {!Workload.kinds} order *)
  s_per_domain : per_domain array;
  s_journal_ok : bool;  (** journal value = mutators (or journal off) *)
  s_conserved : bool;  (** counter plane sums to 0 *)
  (* informational (measured) *)
  s_final : int array;
      (** the store's contents after the join, by key (left out of
          [to_json]: with several domains the last put on a key is a
          race) *)
  s_wall : float;
  s_commits : int;
  s_aborts : int;
  s_flushes : int;  (** always 0, like [s_batched] *)
  s_latency : lat list;  (** per kind, {!Workload.kinds} order *)
  s_open : Tm_telemetry.Latency_recorder.summary option;
      (** open-loop latency (queueing/service/sojourn from the scheduled
          arrival, censored p99): present iff [c_arrival] was set;
          measured, never canonical *)
}

val run :
  ?on_sample:(Tm_telemetry.Registry.snapshot -> unit) -> config -> outcome
(** Execute the whole population and join.  With [c_arrival] set, each
    executor paces dispatch so no request starts before its scheduled
    arrival on the shared virtual schedule, and an open-loop
    {!Tm_telemetry.Latency_recorder} (registry-free — its samples are
    wall-clock measurements) fills [s_open]; the admission model and
    every canonical count are unchanged, so the canonical artifacts of
    an open-loop run differ from the closed-loop run's only in the
    arrival metadata they echo.  [on_sample] receives the
    canonical telemetry scrape twice, {e keyed on the op clock}: once
    at [ts = 0] before the executors start and once at
    [ts = total_requests config] after they join.  The scraped registry
    holds only deterministic instruments ([tm_serve_requests_total],
    [tm_serve_admitted_total], [tm_serve_shed_total],
    [tm_serve_mutators_total] per domain and
    [tm_serve_admitted_kind_total] per kind), so for a fixed
    (profile, seed, domains, algo) the export is byte-deterministic —
    latency histograms are measured and deliberately kept out. *)

val to_json : outcome -> string
(** The canonical serve document — configuration and plan-determined
    results only, stable key order, byte-deterministic for a fixed
    (profile, seed, domains, algo, sizing). *)

val pp_summary : Format.formatter -> outcome -> unit
(** The human summary: canonical counts {e plus} the measured
    throughput/latency/commit/abort numbers. *)

(** {2 Chaos against the serving path} *)

val chaos_workload : config -> Tm_chaos.Runner.workload
(** The serving path as a {!Tm_chaos.Runner} workload, named
    [serve[<profile>]]: each plan slot is an executor that cycles its
    client rotation ([c_clients], at least one per slot, [c_ops]
    rounds) forever, with admission off, and runs each request's ops
    in one transaction that also marks the journal.  The
    journal is the t-variable every slot shares, so a crash holding
    commit locks strands the whole peer set, as the per-algorithm
    expectations in {!Tm_chaos.Plan} describe.  The plan's algo and
    domain count override the config's.  Drive it with
    [Tm_chaos.Runner.run ~workload:(chaos_workload cfg) plan] or
    {!Tm_chaos.Runner.with_session}. *)
