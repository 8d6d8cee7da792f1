(* The repository benchmark: four tmserve workloads over
   [Tm_serve.Server.run], an untraced measurement of the end-to-end
   metrics and a separate traced run costing each layer.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--trace-out FILE]

   The last line of stdout is one JSON object
   {"correct", "attempted", "failed", "metrics"}; any failed correctness
   check is printed and makes the exit code 1.  See README.md for the
   workloads, the metrics and the layer -> metric -> workload map. *)

module Stm = Tm_stm.Stm
module Server = Tm_serve.Server
module Workload = Tm_serve.Workload
module Store = Tm_serve.Store
module Arrival = Tm_serve.Arrival
module Ins = Tm_telemetry.Instrument
module Recorder = Tm_telemetry.Latency_recorder
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let since t0 = float_of_int (now_ns () - t0) /. 1e9

(* {1 Workloads} *)

type workload = {
  w_name : string;
  w_profile : Workload.profile;
  w_rate : float option;  (** open-loop Poisson rate, req/s *)
}

let workloads =
  [
    { w_name = "read-mostly"; w_profile = Read_mostly; w_rate = None };
    { w_name = "write-heavy"; w_profile = Write_heavy; w_rate = None };
    { w_name = "long-txn"; w_profile = Long_txn; w_rate = None };
    { w_name = "mixed-open"; w_profile = Mixed; w_rate = Some 200_000. };
  ]

(* Requests per client per [Server.run]; with the default 10000 clients
   one run serves 200k requests.  Every other knob keeps its library
   default. *)
let ops_per_client = 20
let executor_domains = 2

(* The SLO of [slo_attain]: completion within 1 ms of arrival. *)
let slo_ns = 1_000_000

let config ?(domains = executor_domains) ?(open_loop = true) w ~seed =
  let arrival =
    match w.w_rate with
    | Some rate when open_loop ->
        Some (Arrival.make ~kind:Arrival.Poisson ~rate ~seed)
    | _ -> None
  in
  Server.config ?arrival ~ops:ops_per_client ~profile:w.w_profile ~seed
    ~domains ()

(* {1 Correctness} *)

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "CHECK FAILED: %s\n%!" msg
      end)
    fmt

(* Every served run: conservation, journal, the commit identity (one
   commit per admitted request, except that batched puts commit once
   per combiner flush) and the canonical document, which must not
   change between runs of one seed. *)
let check_outcome ~canonical (o : Server.outcome) =
  let cfg = o.Server.s_config in
  check o.s_conserved "counter plane conserved";
  check o.s_journal_ok "journal = admitted mutators";
  check
    (o.s_requests = Server.total_requests cfg
    && o.s_admitted + o.s_shed = o.s_requests)
    "requests %d = admitted %d + shed %d" o.s_requests o.s_admitted o.s_shed;
  check
    (o.s_commits = o.s_admitted - o.s_batched + o.s_flushes)
    "commits %d = admitted %d - batched %d + flushes %d" o.s_commits
    o.s_admitted o.s_batched o.s_flushes;
  let doc = Server.to_json o in
  match !canonical with
  | None -> canonical := Some doc
  | Some d -> check (String.equal d doc) "canonical document unchanged"

let echo_plan (o : Server.outcome) =
  Printf.printf
    "plan: requests %d admitted %d shed %d batched %d mutators %d%s\n"
    o.s_requests o.s_admitted o.s_shed o.s_batched o.s_mutators
    (String.concat ""
       (List.map (fun (k, n) -> Printf.sprintf " %s %d" k n) o.s_by_kind))

(* {1 Measurement helpers} *)

(* Host stall probe: two domains spin on the clock for [seconds]; the
   share of the spin lost to gaps over 10 us tells a noisy host from a
   regression.  The loop allocates nothing, so the gaps are not GC. *)
let host_stall_frac ~seconds =
  let dur = int_of_float (seconds *. 1e9) in
  let spin () =
    let t0 = now_ns () in
    let lost = ref 0 and prev = ref t0 in
    while !prev - t0 < dur do
      let t = now_ns () in
      if t - !prev > 10_000 then lost := !lost + (t - !prev);
      prev := t
    done;
    (!lost, !prev - t0)
  in
  let ds = List.init 2 (fun _ -> Domain.spawn spin) in
  let lost, total =
    List.fold_left
      (fun (l, t) d ->
        let l', t' = Domain.join d in
        (l + l', t + t'))
      (0, 0) ds
  in
  float_of_int lost /. float_of_int total

(* Time [n] calls of [f] (ns per call) and count the calling domain's
   minor-heap words (words per call); the median of three trials. *)
let per_call ~n f =
  let trial () =
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    for i = 0 to n - 1 do
      f i
    done;
    let dt = now_ns () - t0 in
    let dw = Gc.minor_words () -. w0 in
    (float_of_int dt /. float_of_int n, dw /. float_of_int n)
  in
  let ts = Array.init 3 (fun _ -> trial ()) in
  (Stats.median (Array.map fst ts), Stats.median (Array.map snd ts))

let merge_snaps (snaps : Ins.hsnap list) =
  match snaps with
  | [] -> invalid_arg "merge_snaps"
  | s :: _ ->
      let buckets = Array.make (Array.length s.Ins.buckets) 0 in
      List.iter
        (fun (x : Ins.hsnap) ->
          Array.iteri (fun k c -> buckets.(k) <- buckets.(k) + c) x.buckets)
        snaps;
      {
        Ins.buckets;
        count = List.fold_left (fun a (x : Ins.hsnap) -> a + x.count) 0 snaps;
        sum = List.fold_left (fun a (x : Ins.hsnap) -> a + x.sum) 0 snaps;
        max_sample =
          List.fold_left (fun a (x : Ins.hsnap) -> max a x.max_sample) 0 snaps;
      }

let hires_q (s : Ins.hsnap) q =
  Stats.quantile ~upper:Ins.hires_bucket_upper ~buckets:s.buckets
    ~max_sample:s.max_sample q

(* {1 One served run} *)

type rep = {
  r_out : Server.outcome;
  r_setup : float;  (** wall of the call minus its s_wall *)
  r_rps : float;  (** see [throughput] *)
  r_wall_rps : float;  (** admitted / s_wall *)
  r_slo : float;
  r_sojourn_p50_us : float;
  r_service_p99_us : float;
  r_words : float;  (** minor-heap words per request, all domains *)
  r_minor : int;  (** minor collections during the call *)
  r_major : int;
}

(* Latency: the open-loop recorder's hires histograms (from the
   scheduled arrival) when the run is open; in a closed loop arrival is
   dispatch, so sojourn = service, read off the per-kind log2
   histograms. *)
let latency_figures (o : Server.outcome) =
  let offered = o.s_requests in
  match o.s_open with
  | Some y ->
      let upper = Ins.hires_bucket_upper in
      ( Stats.slo_attain ~upper ~buckets:y.Recorder.y_sojourn.buckets
          ~limit:slo_ns ~offered,
        hires_q y.y_sojourn 0.5 /. 1e3,
        hires_q y.y_service 0.99 /. 1e3 )
  | None ->
      let h = merge_snaps (List.map (fun l -> l.Server.l_snap) o.s_latency) in
      let upper = Ins.bucket_upper in
      let q p =
        Stats.quantile ~upper ~buckets:h.buckets ~max_sample:h.max_sample p
        /. 1e3
      in
      ( Stats.slo_attain ~upper ~buckets:h.buckets ~limit:slo_ns ~offered,
        q 0.5,
        q 0.99 )

let cpu_seconds () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

(* Throughput in a closed loop is admitted requests per executor
   CPU-second of the whole call: the executors are busy from start to
   join, so on a quiet host this is admitted / s_wall, but it does not
   count the time a noisy host takes the cores away.  An open loop paces
   to the arrival clock: admitted / s_wall shows whether it keeps up. *)
let throughput (o : Server.outcome) ~cpu =
  let cfg = o.s_config in
  let adm = float_of_int o.s_admitted in
  match cfg.c_arrival with
  | Some _ -> adm /. o.s_wall
  | None -> adm /. (cpu /. float_of_int cfg.c_domains)

let serve ~canonical cfg =
  let g0 = Gc.quick_stat () in
  let c0 = cpu_seconds () in
  let t0 = now_ns () in
  let o = Server.run cfg in
  let call = since t0 in
  let cpu = cpu_seconds () -. c0 in
  let g1 = Gc.quick_stat () in
  check_outcome ~canonical o;
  let slo, p50, p99 = latency_figures o in
  {
    r_out = o;
    r_setup = call -. o.s_wall;
    r_rps = throughput o ~cpu;
    r_wall_rps = float_of_int o.s_admitted /. o.s_wall;
    r_slo = slo;
    r_sojourn_p50_us = p50;
    r_service_p99_us = p99;
    r_words = (g1.minor_words -. g0.minor_words) /. float_of_int o.s_requests;
    r_minor = g1.minor_collections - g0.minor_collections;
    r_major = g1.major_collections - g0.major_collections;
  }

let med f reps = Stats.median (Array.of_list (List.map f reps))

(* {1 Output} *)

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_spread : float option;  (** IQR / median over the runs, when repeated *)
}

let m m_name m_unit m_value = { m_name; m_value; m_unit; m_spread = None }

(* The median over repeated runs, with their spread for the table. *)
let m_reps m_name m_unit f reps =
  let xs = Array.of_list (List.map f reps) in
  let m_spread = Some (Stats.spread xs) in
  { m_name; m_unit; m_value = Stats.median xs; m_spread }

let print_result ~attempted ~failed metrics =
  List.iter
    (fun x ->
      Printf.printf "  %-32s %16.6f %s%s\n" x.m_name x.m_value x.m_unit
        (match x.m_spread with
        | Some s -> Printf.sprintf "  (IQR %.1f%% of median)" (100.0 *. s)
        | None -> ""))
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.m_name
             (if Float.is_finite x.m_value then x.m_value else 0.0)
             x.m_unit)
         metrics)
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n\
     %!"
    (!failures = 0) attempted failed body

(* {1 Untraced run: the end-to-end metrics} *)

(* Serve for two seconds before measuring: caches, heap growth and lazy
   set-up are not measured, and a host that was idle runs the first
   seconds of load measurably slower. *)
let warm_up ~canonical cfg =
  let t0 = now_ns () in
  let rec go () =
    let r = serve ~canonical cfg in
    if since t0 < 2.0 then go () else echo_plan r.r_out
  in
  go ()

let untraced w ~seed ~seconds =
  let cfg = config w ~seed in
  let canonical = ref None in
  Printf.printf "host.stall_frac %.6f\n%!" (host_stall_frac ~seconds:0.25);
  warm_up ~canonical cfg;
  let t0 = now_ns () in
  let rec loop acc n =
    if n >= 3 && since t0 >= seconds then List.rev acc
    else loop (serve ~canonical cfg :: acc) (n + 1)
  in
  let reps = loop [] 0 in
  let o = (List.hd reps).r_out in
  let attempted = List.length reps * o.s_requests in
  Printf.printf "%s: %d runs of %d requests, wall throughput %.0f req/s\n"
    w.w_name (List.length reps) o.s_requests
    (med (fun r -> r.r_wall_rps) reps);
  print_result ~attempted
    ~failed:(if !failures = 0 then 0 else attempted)
    [
      m_reps "setup_s" "s" (fun r -> r.r_setup) reps;
      m_reps "throughput_rps" "req/s" (fun r -> r.r_rps) reps;
      m "admitted_frac" "ratio"
        (float_of_int o.s_admitted /. float_of_int o.s_requests);
      m_reps "alloc_words_per_req" "words" (fun r -> r.r_words) reps;
      m_reps "slo_attain" "ratio" (fun r -> r.r_slo) reps;
      m_reps "sojourn_p50_us" "us" (fun r -> r.r_sojourn_p50_us) reps;
      m_reps "service_p99_us" "us" (fun r -> r.r_service_p99_us) reps;
    ]

(* {1 Traced run: the per-layer metrics} *)

(* A request as the executors run it outside the combiner: one
   transaction over its ops, journal-marked if it mutates. *)
let exec_request store = function
  | Workload.Single op ->
      ignore
        (Stm.atomically (fun () ->
             let r = Store.exec_op store op in
             if Store.op_mutates op then Store.journal_mark store 1;
             r))
  | Workload.Txn ops ->
      ignore
        (Stm.atomically (fun () ->
             let rs = List.map (Store.exec_op store) ops in
             if List.exists Store.op_mutates ops then
               Store.journal_mark store 1;
             rs))

let fresh_store (cfg : Server.config) =
  Store.create ~stripes:cfg.c_stripes ~journal:cfg.c_journal
    ~keys:cfg.c_keys ()

(* The one-domain stream through public calls, untimed per request. *)
let plain_replay (cfg : Server.config) wl =
  Stm.with_algo cfg.c_algo @@ fun () ->
  let store = fresh_store cfg in
  let t0 = now_ns () in
  Server.iter_requests cfg wl ~domain:0
    ~f:(fun ~client:_ ~index:_ req ~admitted ->
      if admitted then exec_request store req);
  since t0

let span_names =
  [|
    "request";
    "gen_admit";
    "atomically";
    "exec_op";
    "recorder_mark";
    "recorder_complete";
  |]

let sp_request = 0
and sp_gen = 1
and sp_atomically = 2
and sp_exec = 3
and sp_mark = 4
and sp_complete = 5

exception Spans_full

(* The traced replay: the one-domain stream, each request a root span
   keyed by its global index with children for generation + admission
   (the gap between callbacks), the transaction (one span per op per
   attempt) and the recorder calls.  Every result is checked against
   [Store.spec_op], and the final store against the spec array. *)
let span_replay (cfg : Server.config) wl ~capacity =
  Stm.with_algo cfg.c_algo @@ fun () ->
  let store = fresh_store cfg in
  let spec = Array.make cfg.c_keys 0 in
  let spans = Spans.create ~names:span_names ~capacity in
  let recorder = Recorder.create ~domains:1 () in
  let mismatches = ref 0 and served = ref 0 in
  let prev_end = ref (now_ns ()) in
  let t0 = !prev_end in
  let replay ~client ~index req ~admitted =
    let cb = now_ns () in
    if Spans.length spans + 64 > capacity then raise Spans_full;
    incr served;
    let key = (index * cfg.c_clients) + client in
    let open_ name parent start = Spans.open_ spans ~name ~parent ~key ~start in
    let close sp = Spans.close spans sp ~stop:(now_ns ()) in
    let root = open_ sp_request (-1) !prev_end in
    Spans.close spans (open_ sp_gen root !prev_end) ~stop:cb;
    if admitted then begin
      let mark = open_ sp_mark root (now_ns ()) in
      Recorder.mark recorder 0 ~sched:!prev_end;
      close mark;
      let start = now_ns () in
      let tx = open_ sp_atomically root start in
      let exec op =
        let sp = open_ sp_exec tx (now_ns ()) in
        let r = Store.exec_op store op in
        close sp;
        r
      in
      let ops =
        match req with Workload.Single op -> [ op ] | Workload.Txn ops -> ops
      in
      let rs =
        Stm.atomically (fun () ->
            let rs = List.map exec ops in
            if List.exists Store.op_mutates ops then Store.journal_mark store 1;
            rs)
      in
      let finish = now_ns () in
      Spans.close spans tx ~stop:finish;
      let complete = open_ sp_complete root finish in
      Recorder.complete recorder 0 ~start ~finish;
      close complete;
      if rs <> List.map (Store.spec_op spec) ops then incr mismatches
    end;
    let e = now_ns () in
    Spans.close spans root ~stop:e;
    prev_end := e
  in
  (try Server.iter_requests cfg wl ~domain:0 ~f:replay with Spans_full -> ());
  let wall = since t0 in
  (* A stream cut short leaves the keys it never reached at 0 in both. *)
  check (!mismatches = 0) "one-domain replay results = Store.spec_op (%d off)"
    !mismatches;
  check (Store.dump store = spec) "one-domain replay final store = spec";
  (spans, recorder, !served, wall)

let cause_index c =
  let rec go i = function
    | [] -> invalid_arg "cause_index"
    | x :: r -> if x = c then i else go (i + 1) r
  in
  go 0 Stm.Blame.causes

let probe_rep ~canonical cfg =
  let reg = Tm_telemetry.Registry.create () in
  let causes =
    Array.of_list (List.map (fun _ -> Atomic.make 0) Stm.Blame.causes)
  in
  let probe = Tm_telemetry.Stm_probe.install reg in
  Stm.Blame.install
    {
      Stm.Blame.on_event =
        (fun e -> Atomic.incr causes.(cause_index e.b_cause));
      on_progress = (fun _ -> ());
    };
  let r =
    Fun.protect
      ~finally:(fun () ->
        Tm_telemetry.Stm_probe.uninstall ();
        Stm.Blame.uninstall ())
      (fun () -> serve ~canonical cfg)
  in
  (r, probe, Array.map Atomic.get causes)

let traced w ~seed ~seconds ~trace_out =
  let t_start = now_ns () in
  let cfg = config w ~seed in
  let cfg1 = config ~domains:1 ~open_loop:false w ~seed in
  let wl = Server.workload cfg in
  let n = Server.total_requests cfg in
  let canonical = ref None and canonical1 = ref None in
  let stall = host_stall_frac ~seconds:0.25 in
  (* Layer micro-costs over the workload's own stream. *)
  let req_ns, req_words =
    let clients = cfg.c_clients in
    per_call ~n (fun i ->
        let client = i mod clients and index = i / clients in
        ignore (Sys.opaque_identity (Workload.request wl ~client ~index)))
  in
  let iter_ns =
    let trial () =
      let t0 = now_ns () in
      Server.iter_requests cfg1 wl ~domain:0
        ~f:(fun ~client:_ ~index:_ req ~admitted:_ ->
          ignore (Sys.opaque_identity req));
      float_of_int (now_ns () - t0) /. float_of_int n
    in
    Stats.median (Array.init 3 (fun _ -> trial ()))
  in
  let noop () = () in
  let empty_ns, empty_words =
    per_call ~n:500_000 (fun _ -> Stm.atomically noop)
  in
  let arrival_ns, _ =
    let a = Arrival.make ~kind:Arrival.Poisson ~rate:200_000. ~seed in
    let cur = Arrival.cursor a in
    per_call ~n:500_000 (fun _ ->
        ignore (Sys.opaque_identity (Arrival.next cur)))
  in
  let mark_ns, _ =
    let r = Recorder.create ~domains:1 () in
    per_call ~n:500_000 (fun i ->
        Recorder.mark r 0 ~sched:i;
        Recorder.complete r 0 ~start:(i + 50) ~finish:(i + 300))
  in
  (* The admitted one-domain stream, replayed per algorithm. *)
  let admitted = ref [] in
  Server.iter_requests cfg1 wl ~domain:0
    ~f:(fun ~client:_ ~index:_ req ~admitted:a ->
      if a then admitted := req :: !admitted);
  let reqs = Array.of_list (List.rev !admitted) in
  let txn_cost algo =
    Stm.with_algo algo @@ fun () ->
    let store = fresh_store cfg in
    per_call ~n:(Array.length reqs) (fun i -> exec_request store reqs.(i))
  in
  let txn_by_algo = List.map (fun a -> (a, txn_cost a)) Stm.Algo.all in
  (* Executor self cost: one-domain Server.run minus the plain replay. *)
  let self_pairs =
    List.init 3 (fun _ ->
        let r = serve ~canonical:canonical1 cfg1 in
        let p = plain_replay cfg1 wl in
        (r.r_out.s_wall /. float_of_int n *. 1e9, p /. float_of_int n *. 1e9))
  in
  let server_self = med fst self_pairs -. med snd self_pairs in
  (* Spans. *)
  let spans, recorder, served, span_wall =
    span_replay cfg1 wl ~capacity:(30 * 20_000)
  in
  let plain_ns = med snd self_pairs in
  let span_ns = span_wall /. float_of_int served *. 1e9 in
  let events =
    Spans.to_events spans ~keys:200 ~category:(function
      | "atomically" | "exec_op" -> Tm_trace.Trace_event.Txn
      | "recorder_mark" | "recorder_complete" -> Tm_trace.Trace_event.Monitor
      | _ -> Tm_trace.Trace_event.Sched)
  in
  Option.iter
    (fun file ->
      let oc = open_out file in
      Tm_trace.Export.to_chrome_channel oc events;
      close_out oc;
      Printf.printf "spans: %d recorded, %d exported to %s\n"
        (Spans.length spans) (List.length events / 2) file)
    trace_out;
  (* The real two-domain run, untraced and probed in alternation. *)
  let t_phase = now_ns () in
  let budget = Float.max 1.0 (seconds -. since t_start) in
  let rec loop acc n =
    if n >= 2 && since t_phase >= budget then List.rev acc
    else
      let u = serve ~canonical cfg in
      let p = probe_rep ~canonical cfg in
      loop ((u, p) :: acc) (n + 1)
  in
  let pairs = loop [] 0 in
  let plain = List.map fst pairs and probed = List.map snd pairs in
  let o = (List.hd plain).r_out in
  echo_plan o;
  let sum_probe f =
    (* pool the probed runs' phase histograms *)
    let hs = List.map (fun (_, p, _) -> Ins.hist_snapshot (f p)) probed in
    let s = merge_snaps hs in
    if s.count = 0 then 0.0 else float_of_int s.sum /. float_of_int s.count
  in
  let module P = Tm_telemetry.Stm_probe in
  let per_mreq x =
    float_of_int x /. float_of_int (List.length probed * n) *. 1e6
  in
  let blame c =
    let i = cause_index c in
    per_mreq (List.fold_left (fun a (_, _, cs) -> a + cs.(i)) 0 probed)
  in
  (* The open loop's own recorder; a closed loop's replay recorder,
     whose arrival is the start of generation. *)
  let y =
    match o.s_open with
    | Some y -> y
    | None -> Recorder.summary recorder ~now:(now_ns ())
  in
  let rps_plain = med (fun r -> r.r_rps) plain in
  let rps_probed = med (fun (r, _, _) -> r.r_rps) probed in
  let txn a = List.assoc a txn_by_algo in
  let algo_metrics =
    List.concat_map
      (fun a ->
        if a = Stm.Algo.Tl2 then []
        else
          let nm = Stm.Algo.name a in
          [ m ("stm." ^ nm ^ ".txn_ns") "ns" (fst (txn a));
            m ("stm." ^ nm ^ ".txn_words") "words" (snd (txn a)) ])
      Stm.Algo.all
  in
  let span_metrics =
    List.map
      (fun (nm, mean) -> m ("span." ^ nm ^ ".self_ns") "ns" mean)
      (Spans.mean_self spans)
  in
  let attempted = (List.length pairs * 2 * n) + (3 * n) + served in
  print_result ~attempted ~failed:(if !failures = 0 then 0 else attempted)
    ([
       m "host.stall_frac" "ratio" stall;
       m "workload.request_ns" "ns" req_ns;
       m "workload.request_words" "words" req_words;
       m "admission.ns_per_req" "ns" (iter_ns -. req_ns);
       m "admission.shed" "count" (float_of_int o.s_shed);
       m "server.self_ns_per_req" "ns" server_self;
       m "server.wall_rps" "req/s" (med (fun r -> r.r_wall_rps) plain);
       m "server.batch_size" "puts/flush"
         (float_of_int o.s_batched /. float_of_int o.s_flushes);
       m "server.commits_per_admitted" "ratio"
         (med
            (fun r ->
              float_of_int r.r_out.s_commits /. float_of_int r.r_out.s_admitted)
            plain);
       m "stm.empty_txn_ns" "ns" empty_ns;
       m "stm.empty_txn_words" "words" empty_words;
       m "stm.txn_ns" "ns" (fst (txn Stm.Algo.Tl2));
       m "stm.txn_words" "words" (snd (txn Stm.Algo.Tl2));
     ]
    @ algo_metrics
    @ [
        m "stm.commit_ratio" "ratio"
          (med
             (fun r ->
               let c = r.r_out.s_commits in
               float_of_int c /. float_of_int (c + r.r_out.s_aborts))
             plain);
      ]
    @ List.map
        (fun c -> m ("blame." ^ Stm.Blame.cause_label c) "1/Mreq" (blame c))
        [ Stm.Blame.Read_conflict; Stm.Blame.Lock_busy; Stm.Blame.Validation ]
    @ [
        m "tl2.lock_ns" "ns" (sum_probe (fun p -> p.P.lock_ns));
        m "tl2.validate_ns" "ns" (sum_probe (fun p -> p.P.validate_ns));
        m "tl2.publish_ns" "ns" (sum_probe (fun p -> p.P.publish_ns));
        m "stm.commit_attempt_ns" "ns" (sum_probe (fun p -> p.P.commit_ns));
        m "stm.abort_attempt_ns" "ns" (sum_probe (fun p -> p.P.abort_ns));
        m "arrival.next_ns" "ns" arrival_ns;
        m "recorder.mark_complete_ns" "ns" mark_ns;
        m "recorder.queueing_p50_us" "us" (hires_q y.y_queueing 0.5 /. 1e3);
        m "recorder.queueing_p99_us" "us" (hires_q y.y_queueing 0.99 /. 1e3);
        m "recorder.sojourn_p99_us" "us" (hires_q y.y_sojourn 0.99 /. 1e3);
        m "recorder.sojourn_p999_us" "us" (hires_q y.y_sojourn 0.999 /. 1e3);
        m "recorder.samples" "count" (float_of_int y.y_sojourn.count);
        m "gc.minor_per_kreq" "1/kreq"
          (float_of_int (List.fold_left (fun a r -> a + r.r_minor) 0 plain)
          /. float_of_int (List.length plain * n) *. 1e3);
        m "gc.major" "1/Mreq"
          (float_of_int (List.fold_left (fun a r -> a + r.r_major) 0 plain)
          /. float_of_int (List.length plain * n) *. 1e6);
        m "trace.overhead_frac" "ratio" (1.0 -. (rps_probed /. rps_plain));
        m "trace.replay_overhead_frac" "ratio" (1.0 -. (plain_ns /. span_ns));
      ]
    @ span_metrics)

(* {1 Command line} *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and trace_out = ref None in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  one of the workloads");
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measuring time (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end run or traced run");
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "FILE  Chrome trace of the traced run" );
    ]
  in
  let usage =
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]"
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let w =
    match List.find_opt (fun w -> w.w_name = !workload) workloads with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %S (expected %s)\n" !workload
          (String.concat ", " (List.map (fun w -> w.w_name) workloads));
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  if !trace = 1 then
    traced w ~seed:!seed ~seconds:!seconds ~trace_out:!trace_out
  else untraced w ~seed:!seed ~seconds:!seconds;
  if !failures > 0 then exit 1
