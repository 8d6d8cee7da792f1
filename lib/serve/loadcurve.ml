(* Rate-ladder load curves.

   Two layers, kept strictly apart by the determinism discipline:

   - The *canonical* curve is a virtual-time model: one server draining
     a FIFO queue at a fixed cost-to-nanoseconds quantum, fed by the
     deterministic arrival schedule.  It is a pure integer computation
     over (profile, seed, clients, ops, keys, queue_cap, quantum, kind,
     ladder) — no domains, no wall clock — so its JSON document is
     byte-identical across runs and across every [--domains] choice.
     It answers the planning question: where does the offered rate
     outrun the configured capacity, what does queueing delay do to the
     sojourn tail as the knee approaches, and what fraction sheds.

   - The *measured* points run the real multicore server with the same
     arrival clock and report wall-clock achieved throughput and the
     recorder's open/closed p99 — informational, never canonical.

   The shed rule mirrors {!Server}'s admission queue, translated to
   virtual time: a request arriving with more than [queue_cap * quantum]
   nanoseconds of work backlogged is shed. *)

module Tel = Tm_telemetry

type pcts = { q50 : int; q90 : int; q99 : int; q999 : int; q9999 : int }

let pcts_of_snap s =
  let q p = Tel.Instrument.hires_quantile s p in
  {
    q50 = q 0.5;
    q90 = q 0.9;
    q99 = q 0.99;
    q999 = q 0.999;
    q9999 = q 0.9999;
  }

type point = {
  p_rate : float;  (* offered, req/s of virtual time *)
  p_offered : int;  (* requests scheduled *)
  p_admitted : int;
  p_shed : int;
  p_achieved : float;  (* admitted per second of virtual makespan *)
  p_queueing : pcts;
  p_service : pcts;
  p_sojourn : pcts;
}

type curve = {
  v_kind : Arrival.kind;
  v_profile : Workload.profile;
  v_seed : int;
  v_clients : int;
  v_ops : int;
  v_keys : int;
  v_queue_cap : int;
  v_quantum : int;
  v_points : point list;
}

let default_quantum_ns = 1_000

(* One rung: the virtual single-server queue over the full request
   population in global-index order (index-major, the same global order
   the executors' strides interleave to). *)
let rung ?on_sample ~quantum ~kind ~rung_index rate (cfg : Server.config) wl =
  let n = Server.total_requests cfg in
  let arrival = Arrival.make ~kind ~rate ~seed:cfg.Server.c_seed in
  let cur = Arrival.cursor arrival in
  let cap_ns = cfg.Server.c_queue_cap * quantum in
  let reg = Tel.Registry.create () in
  let admitted_c =
    Tel.Registry.counter reg ~help:"Requests admitted (model)"
      "tm_loadcurve_admitted_total"
  in
  let shed_c =
    Tel.Registry.counter reg ~help:"Requests shed (model)"
      "tm_loadcurve_shed_total"
  in
  let hist name help = Tel.Registry.hires reg ~help name in
  let queueing_h =
    hist "tm_loadcurve_queueing_ns" "Arrival to service start (virtual)"
  in
  let service_h =
    hist "tm_loadcurve_service_ns" "Service time (cost * quantum)"
  in
  let sojourn_h =
    hist "tm_loadcurve_sojourn_ns" "Arrival to completion (virtual)"
  in
  let prng = Tm_sim.Prng.create 0 in
  let server_free = ref 0 in
  let admitted = ref 0 and shed = ref 0 and makespan = ref 0 in
  for g = 0 to n - 1 do
    let arr = Arrival.next cur in
    let client = g mod cfg.Server.c_clients
    and index = g / cfg.Server.c_clients in
    let shape = Workload.shape wl prng ~client ~index in
    let service = Workload.shape_cost shape * quantum in
    let backlog = max 0 (!server_free - arr) in
    if backlog > cap_ns then begin
      incr shed;
      Tel.Instrument.incr shed_c
    end
    else begin
      let start = max arr !server_free in
      let finish = start + service in
      server_free := finish;
      makespan := finish;
      incr admitted;
      Tel.Instrument.incr admitted_c;
      Tel.Instrument.hires_observe queueing_h (start - arr);
      Tel.Instrument.hires_observe service_h service;
      Tel.Instrument.hires_observe sojourn_h (finish - arr)
    end
  done;
  (match on_sample with
  | Some f -> f (Tel.Registry.scrape reg ~ts:rung_index)
  | None -> ());
  let snap h = Tel.Instrument.hires_snapshot h in
  {
    p_rate = rate;
    p_offered = n;
    p_admitted = !admitted;
    p_shed = !shed;
    p_achieved =
      (if !admitted = 0 || !makespan = 0 then 0.0
       else float_of_int !admitted *. 1e9 /. float_of_int !makespan);
    p_queueing = pcts_of_snap (snap queueing_h);
    p_service = pcts_of_snap (snap service_h);
    p_sojourn = pcts_of_snap (snap sojourn_h);
  }

let run ?(quantum_ns = default_quantum_ns) ?on_sample ~kind ~ladder
    (cfg : Server.config) =
  if quantum_ns < 1 then invalid_arg "Loadcurve.run: quantum_ns < 1";
  if ladder = [] then invalid_arg "Loadcurve.run: empty ladder";
  List.iter
    (fun r ->
      if not (r > 0.0) then invalid_arg "Loadcurve.run: non-positive rate")
    ladder;
  let wl = Server.workload cfg in
  let points =
    List.mapi
      (fun i rate ->
        rung ?on_sample ~quantum:quantum_ns ~kind ~rung_index:i rate cfg wl)
      ladder
  in
  {
    v_kind = kind;
    v_profile = cfg.Server.c_profile;
    v_seed = cfg.Server.c_seed;
    v_clients = cfg.Server.c_clients;
    v_ops = cfg.Server.c_ops;
    v_keys = cfg.Server.c_keys;
    v_queue_cap = cfg.Server.c_queue_cap;
    v_quantum = quantum_ns;
    v_points = points;
  }

let shed_fraction p =
  if p.p_offered = 0 then 0.0
  else float_of_int p.p_shed /. float_of_int p.p_offered

(* {2 The knee} *)

let knee ?(threshold = 0.85) xy =
  List.fold_left
    (fun acc (rate, achieved) ->
      if achieved >= threshold *. rate && rate > acc then rate else acc)
    0.0 xy

let curve_xy c = List.map (fun p -> (p.p_rate, p.p_achieved)) c.v_points

(* {2 Canonical JSON} *)

let add_pcts b key p =
  Buffer.add_string b
    (Fmt.str "%S:{\"p50\":%d,\"p90\":%d,\"p99\":%d,\"p999\":%d,\"p9999\":%d}"
       key p.q50 p.q90 p.q99 p.q999 p.q9999)

let to_json c =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Fmt.str
       "{\"subsystem\":\"tmloadcurve\",\"profile\":%S,\"arrival\":%S,\"seed\":%d,\"clients\":%d,\"ops_per_client\":%d,\"keys\":%d,\"queue_cap\":%d,\"quantum_ns\":%d,\"knee\":%.1f,\"rungs\":["
       (Workload.profile_name c.v_profile)
       (Arrival.kind_name c.v_kind)
       c.v_seed c.v_clients c.v_ops c.v_keys c.v_queue_cap c.v_quantum
       (knee (curve_xy c)));
  List.iteri
    (fun i p ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"rate\":%.1f,\"offered\":%d,\"admitted\":%d,\"shed\":%d,\"shed_fraction\":%.6f,\"achieved\":%.1f,"
           p.p_rate p.p_offered p.p_admitted p.p_shed (shed_fraction p)
           p.p_achieved);
      add_pcts b "queueing" p.p_queueing;
      Buffer.add_char b ',';
      add_pcts b "service" p.p_service;
      Buffer.add_char b ',';
      add_pcts b "sojourn" p.p_sojourn;
      Buffer.add_char b '}')
    c.v_points;
  Buffer.add_string b "]}";
  Buffer.contents b

let pp_curve ppf c =
  Fmt.pf ppf
    "@[<v>tmloadcurve profile=%s arrival=%s seed=%d clients=%d ops/client=%d \
     queue_cap=%d quantum=%dns@,\
     %-10s %-10s %-6s %-9s %-10s %-10s %-10s@,"
    (Workload.profile_name c.v_profile)
    (Arrival.kind_name c.v_kind)
    c.v_seed c.v_clients c.v_ops c.v_queue_cap c.v_quantum "offered/s"
    "achieved/s" "shed%" "queue p99" "sojourn p99" "p99.9" "p99.99";
  List.iter
    (fun p ->
      Fmt.pf ppf "%-10.0f %-10.0f %-6.2f %-9d %-10d %-10d %-10d@," p.p_rate
        p.p_achieved
        (100.0 *. shed_fraction p)
        p.p_queueing.q99 p.p_sojourn.q99 p.p_sojourn.q999 p.p_sojourn.q9999)
    c.v_points;
  Fmt.pf ppf "knee (achieved >= 0.85 offered): %.0f req/s@]"
    (knee (curve_xy c))

(* {2 Measured points} *)

type mpoint = {
  m_rate : float;
  m_wall : float;
  m_admitted : int;
  m_shed : int;
  m_achieved : float;  (* admitted per wall second *)
  m_open_p99 : int;
  m_closed_p99 : int;
}

let measure ?(kind = Arrival.Poisson) ~ladder (cfg : Server.config) =
  List.map
    (fun rate ->
      let arrival = Arrival.make ~kind ~rate ~seed:cfg.Server.c_seed in
      let o = Server.run { cfg with Server.c_arrival = Some arrival } in
      let open_p99, closed_p99 =
        match o.Server.s_open with
        | Some y ->
            ( y.Tel.Latency_recorder.y_open_p99,
              y.Tel.Latency_recorder.y_closed_p99 )
        | None -> (0, 0)
      in
      {
        m_rate = rate;
        m_wall = o.Server.s_wall;
        m_admitted = o.Server.s_admitted;
        m_shed = o.Server.s_shed;
        m_achieved =
          float_of_int o.Server.s_admitted /. Float.max 1e-9 o.Server.s_wall;
        m_open_p99 = open_p99;
        m_closed_p99 = closed_p99;
      })
    ladder

let measure_xy ms = List.map (fun m -> (m.m_rate, m.m_achieved)) ms

let pp_mpoint ppf m =
  Fmt.pf ppf
    "rate %.0f: wall %.3fs, %.0f adm/s (admitted %d, shed %d), p99 open %d \
     ns / closed %d ns"
    m.m_rate m.m_wall m.m_achieved m.m_admitted m.m_shed m.m_open_p99
    m.m_closed_p99
