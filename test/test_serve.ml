(* Tests for the tmserve subsystem: Zipf sanity (qcheck), workload
   determinism and conservation, the Store differential against the
   sequential-map spec under every core in the zoo, the canonical
   serve document's byte-determinism, the op-clock telemetry contract,
   and the chaos-against-the-serving-path verdicts. *)

module Prng = Tm_sim.Prng
module Zipf = Tm_serve.Zipf
module Store = Tm_serve.Store
module Workload = Tm_serve.Workload
module Server = Tm_serve.Server
module Plan = Tm_chaos.Plan
module Runner = Tm_chaos.Runner
module Tev = Tm_trace.Trace_event
module Tel = Tm_telemetry
module Stm = Tm_stm.Stm

(* ------------------------------------------------------------------ *)
(* Zipf. *)

let small_n = QCheck.Gen.int_range 2 512

let prop_zipf_pmf_monotone =
  QCheck.Test.make ~count:60 ~name:"zipf pmf is nonincreasing in rank"
    QCheck.(make small_n)
    (fun n ->
      let z = Zipf.create ~n () in
      let ok = ref true in
      for r = 1 to n - 1 do
        if Zipf.mass z r > Zipf.mass z (r - 1) +. 1e-12 then ok := false
      done;
      !ok)

let prop_zipf_cum_monotone =
  QCheck.Test.make ~count:60 ~name:"zipf cumulative is monotone to 1"
    QCheck.(make small_n)
    (fun n ->
      let z = Zipf.create ~n () in
      let ok = ref true in
      for r = 1 to n - 1 do
        if Zipf.cumulative_mass z r < Zipf.cumulative_mass z (r - 1) -. 1e-12
        then ok := false
      done;
      !ok && abs_float (Zipf.cumulative_mass z (n - 1) -. 1.0) < 1e-9)

let prop_zipf_sample_deterministic =
  QCheck.Test.make ~count:60 ~name:"zipf sampling is seed-deterministic"
    QCheck.(pair (make small_n) small_int)
    (fun (n, seed) ->
      let z = Zipf.create ~n () in
      let draw () =
        let g = Prng.create seed in
        List.init 64 (fun _ -> Zipf.sample z g)
      in
      let xs = draw () in
      List.for_all (fun r -> r >= 0 && r < n) xs && xs = draw ())

let test_zipf_hot_set_mass () =
  (* At the default s = 1.07 the head is genuinely hot: the top 10% of
     1000 ranks carries well over half the mass, and rank 0 alone beats
     the entire coldest 10%. *)
  let z = Zipf.create ~n:1000 () in
  let top10 = Zipf.cumulative_mass z 99 in
  Alcotest.(check bool) "top-10% mass > 0.5" true (top10 > 0.5);
  Alcotest.(check bool) "top-10% mass < 1.0" true (top10 < 1.0);
  let cold = 1.0 -. Zipf.cumulative_mass z 899 in
  Alcotest.(check bool) "rank 0 beats the coldest decile" true
    (Zipf.mass z 0 > cold);
  Alcotest.(check int) "u=0 inverts to rank 0" 0 (Zipf.sample_u z 0.0);
  Alcotest.(check int) "u->1 inverts to the last rank" 999
    (Zipf.sample_u z 0.999999999)

let test_zipf_sample_matches_inversion () =
  let z = Zipf.create ~n:97 () in
  for seed = 0 to 20 do
    let g1 = Prng.create seed and g2 = Prng.create seed in
    let direct = Zipf.sample z g1 in
    let via_u = Zipf.sample_u z (Zipf.uniform01 g2) in
    Alcotest.(check int) (Fmt.str "seed %d" seed) via_u direct
  done

(* ------------------------------------------------------------------ *)
(* Workload. *)

let test_workload_deterministic () =
  List.iter
    (fun profile ->
      let w1 = Workload.create ~profile ~seed:42 ~keys:256 ()
      and w2 = Workload.create ~profile ~seed:42 ~keys:256 () in
      for client = 0 to 40 do
        for index = 0 to 5 do
          let r1 = Workload.request w1 ~client ~index
          and r2 = Workload.request w2 ~client ~index in
          Alcotest.(check bool)
            (Fmt.str "%s c%d i%d replays" (Workload.profile_name profile)
               client index)
            true (r1 = r2)
        done
      done)
    Workload.profiles

let test_workload_planes_and_conservation () =
  let keys = 128 in
  List.iter
    (fun profile ->
      let w = Workload.create ~profile ~seed:7 ~keys () in
      for client = 0 to 200 do
        let check_op deltas = function
          | Store.O_get k | Store.O_put (k, _) | Store.O_cas (k, _, _) ->
              Alcotest.(check bool) "kv ops hit the even plane" true
                (k >= 0 && k < keys && k mod 2 = 0);
              deltas
          | Store.O_add (k, d) ->
              Alcotest.(check bool) "transfers hit the odd plane" true
                (k >= 0 && k < keys && k mod 2 = 1);
              deltas + d
        in
        match Workload.request w ~client ~index:0 with
        | Workload.Single op -> ignore (check_op 0 op)
        | Workload.Txn ops ->
            Alcotest.(check int) "every transaction conserves" 0
              (List.fold_left check_op 0 ops)
      done)
    Workload.profiles

let test_workload_costs () =
  let w = Workload.create ~profile:Workload.Read_mostly ~seed:1 ~keys:16 () in
  Alcotest.(check int) "get costs 8" 8
    (Workload.cost (Workload.Single (Store.O_get 0)));
  Alcotest.(check int) "put costs 14" 14
    (Workload.cost (Workload.Single (Store.O_put (0, 1))));
  Alcotest.(check int) "txn costs 8 + 6/op" (8 + 12)
    (Workload.cost (Workload.Txn [ Store.O_get 0; Store.O_get 2 ]));
  ignore (Workload.zipf w)

(* The serving path's kind label of a request. *)
let kind_of = function
  | Workload.Single (Store.O_get _) -> "get"
  | Workload.Single (Store.O_put _ | Store.O_add _) -> "put"
  | Workload.Single (Store.O_cas _) -> "cas"
  | Workload.Txn _ -> "txn"

(* Every request's shape prices it exactly as [cost] prices the request
   built from it, and labels it with the same kind. *)
let test_workload_shape_cost () =
  let g = Prng.create 0 in
  List.iter
    (fun profile ->
      let w = Workload.create ~profile ~seed:3 ~keys:64 () in
      for client = 0 to 300 do
        let req = Workload.request w ~client ~index:1 in
        let shape = Workload.shape w g ~client ~index:1 in
        Alcotest.(check int) "shape cost = request cost" (Workload.cost req)
          (Workload.shape_cost shape);
        Alcotest.(check string) "shape kind = request kind" (kind_of req)
          (List.nth Workload.kinds (Workload.shape_kind shape))
      done)
    Workload.profiles

let golden_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')

let op_str = function
  | Store.O_get k -> Fmt.str "g%d" k
  | Store.O_put (k, v) -> Fmt.str "p%d,%d" k v
  | Store.O_add (k, d) -> Fmt.str "a%d,%d" k d
  | Store.O_cas (k, e, d) -> Fmt.str "c%d,%d,%d" k e d

(* The request stream is pinned: the first 2000 requests of every
   profile (seed 42, 128 keys), rendered one per line, hash to the
   digests in [golden/requests.txt]. *)
let test_workload_golden_stream () =
  let want = golden_lines "golden/requests.txt" in
  Alcotest.(check int) "one digest per profile"
    (List.length Workload.profiles) (List.length want);
  List.iter2
    (fun profile line ->
      let w = Workload.create ~profile ~seed:42 ~keys:128 () in
      let b = Buffer.create 4096 in
      for index = 0 to 3 do
        for client = 0 to 499 do
          (match Workload.request w ~client ~index with
          | Workload.Single op -> Buffer.add_string b (op_str op)
          | Workload.Txn ops ->
              Buffer.add_string b
                ("[" ^ String.concat ";" (List.map op_str ops) ^ "]"));
          Buffer.add_char b '\n'
        done
      done;
      Alcotest.(check string)
        (Workload.profile_name profile ^ " stream digest")
        line
        (Workload.profile_name profile ^ " "
        ^ Digest.to_hex (Digest.string (Buffer.contents b))))
    Workload.profiles want

(* Words gate, one domain: drawing a shape and filling the op buffer
   allocate nothing, so a shed request costs no minor-heap words and an
   admitted one costs only what its transaction does. *)
let test_workload_zero_alloc () =
  let g = Prng.create 0 in
  let buf = Store.buf_create ~capacity:Workload.max_ops in
  List.iter
    (fun profile ->
      let w = Workload.create ~profile ~seed:9 ~keys:1024 () in
      let n = 10_000 in
      let acc = ref 0 in
      let w0 = Gc.minor_words () in
      for i = 0 to n - 1 do
        acc :=
          !acc + Workload.shape_cost (Workload.shape w g ~client:i ~index:0)
      done;
      let w1 = Gc.minor_words () in
      for i = 0 to n - 1 do
        Workload.fill w g (Workload.shape w g ~client:i ~index:1) buf;
        acc := !acc + buf.Store.b_len
      done;
      let w2 = Gc.minor_words () in
      ignore (Sys.opaque_identity !acc);
      let name = Workload.profile_name profile in
      Alcotest.(check (float 0.)) (name ^ ": 10^4 shapes, 0 words") 0.
        (w1 -. w0);
      Alcotest.(check (float 0.)) (name ^ ": 10^4 fills, 0 words") 0.
        (w2 -. w1))
    Workload.profiles

(* ------------------------------------------------------------------ *)
(* Store: differential against the sequential-map spec. *)

let random_ops ~keys ~count seed =
  let g = Prng.create seed in
  List.init count (fun _ ->
      let k = Prng.int g keys in
      match Prng.int g 4 with
      | 0 -> Store.O_get k
      | 1 -> Store.O_put (k, Prng.int g 1000)
      | 2 -> Store.O_add (k, Prng.int g 20 - 10)
      | _ -> Store.O_cas (k, Prng.int g 4, Prng.int g 1000))

(* Single-domain replay: fold the same op stream through the store and
   through the plain-array spec; results and final contents must agree
   under every core. *)
let test_store_differential_sequential () =
  let keys = 32 in
  List.iter
    (fun algo ->
      Stm.with_algo algo (fun () ->
          let st = Store.create ~stripes:8 ~journal:true ~keys () in
          let model = Array.make keys 0 in
          let muts = ref 0 in
          for batch = 0 to 30 do
            let ops = random_ops ~keys ~count:(1 + (batch mod 5)) batch in
            let got = Store.multi st ops in
            let want = List.map (Store.spec_op model) ops in
            if List.exists Store.op_mutates ops then incr muts;
            Alcotest.(check bool)
              (Fmt.str "%s batch %d results" (Stm.Algo.name algo) batch)
              true (got = want)
          done;
          Alcotest.(check (array int))
            (Stm.Algo.name algo ^ " final contents")
            model (Store.dump st);
          Alcotest.(check int)
            (Stm.Algo.name algo ^ " journal counts mutating batches")
            !muts (Store.journal_value st)))
    Stm.Algo.all

(* The serving body over a Get-shaped buffer — four reads through the
   descriptor, as every executor runs one — allocates nothing under
   tl2, journal on. *)
let test_exec_buf_zero_alloc () =
  Stm.with_algo Stm.Algo.Tl2 (fun () ->
      let st = Store.create ~stripes:8 ~journal:true ~keys:64 () in
      let buf = Store.buf_create ~capacity:Workload.max_ops in
      for i = 0 to 3 do
        Store.buf_set buf i Store.B_get (i * 13) 0 0
      done;
      buf.Store.b_len <- 4;
      let body tx = Store.exec_buf st tx buf in
      for _ = 1 to 1_000 do
        Stm.atomically_tx body
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to 10_000 do
        Stm.atomically_tx body
      done;
      let w1 = Gc.minor_words () in
      Alcotest.(check (float 0.))
        "10^4 Get-shaped exec_buf transactions, 0 words" 0. (w1 -. w0))

(* Concurrent conservation: domains hammer disjoint-sum transfers plus
   journal-marked puts; the counter plane must still sum to zero and
   the journal must count every mutator, under every core. *)
let test_store_differential_concurrent () =
  let keys = 64 and nd = 3 and per = 150 in
  List.iter
    (fun algo ->
      Stm.with_algo algo (fun () ->
          let st = Store.create ~stripes:16 ~journal:true ~keys () in
          let worker d () =
            let g = Prng.create (1000 + d) in
            for _ = 1 to per do
              let a = Prng.int g (keys / 2) in
              let b = (a + 1 + Prng.int g ((keys / 2) - 1)) mod (keys / 2) in
              let d' = 1 + Prng.int g 9 in
              ignore
                (Store.multi st
                   [
                     Store.O_add ((2 * a) + 1, -d');
                     Store.O_add ((2 * b) + 1, d');
                   ])
            done
          in
          let ds = List.init nd (fun d -> Domain.spawn (worker d)) in
          List.iter Domain.join ds;
          let odd_sum = ref 0 in
          Array.iteri
            (fun k v -> if k mod 2 = 1 then odd_sum := !odd_sum + v)
            (Store.dump st);
          Alcotest.(check int)
            (Stm.Algo.name algo ^ " counter plane conserved")
            0 !odd_sum;
          Alcotest.(check int)
            (Stm.Algo.name algo ^ " journal counted every transfer")
            (nd * per) (Store.journal_value st)))
    Stm.Algo.all

(* ------------------------------------------------------------------ *)
(* Server: canonical document and admission model. *)

let small_cfg ?(profile = Workload.Read_mostly) ?(algo = Stm.Algo.Tl2)
    ?(domains = 4) ?(journal = false) () =
  Server.config ~algo ~clients:400 ~ops:3 ~keys:128 ~stripes:16 ~journal
    ~profile ~seed:42 ~domains ()

let test_server_canonical_deterministic () =
  let cfg = small_cfg () in
  let j1 = Server.to_json (Server.run cfg)
  and j2 = Server.to_json (Server.run cfg) in
  Alcotest.(check string) "two runs, byte-identical canonical JSON" j1 j2

let test_server_counts () =
  let cfg = small_cfg ~journal:true () in
  let o = Server.run cfg in
  Alcotest.(check int) "requests = clients * ops"
    (Server.total_requests cfg) o.Server.s_requests;
  Alcotest.(check int) "admitted + shed = requests" o.Server.s_requests
    (o.Server.s_admitted + o.Server.s_shed);
  Alcotest.(check int) "by-kind sums to admitted" o.Server.s_admitted
    (List.fold_left (fun a (_, n) -> a + n) 0 o.Server.s_by_kind);
  Alcotest.(check bool) "journal matches mutators" true
    o.Server.s_journal_ok;
  Alcotest.(check bool) "counter plane conserved" true o.Server.s_conserved;
  let agg f = Array.fold_left (fun a d -> a + f d) 0 o.Server.s_per_domain in
  Alcotest.(check int) "per-domain requests sum" o.Server.s_requests
    (agg (fun d -> d.Server.d_requests));
  Alcotest.(check int) "per-domain admitted sum" o.Server.s_admitted
    (agg (fun d -> d.Server.d_admitted))

let test_server_one_commit_per_request () =
  (* Every admitted request, single puts included, runs as its own
     transaction: the commit count equals the admitted count under every
     core, even on the conflict-heavy profile where aborts and retries
     happen. *)
  List.iter
    (fun algo ->
      let name = Stm.Algo.name algo in
      let o =
        Server.run
          (small_cfg ~profile:Workload.Write_heavy ~algo ~domains:2 ())
      in
      Alcotest.(check int)
        (name ^ " commits = admitted")
        o.Server.s_admitted o.Server.s_commits;
      Alcotest.(check int) (name ^ " no batched puts") 0 o.Server.s_batched;
      Alcotest.(check int) (name ^ " no flushes") 0 o.Server.s_flushes)
    Stm.Algo.all

let test_server_long_txn_sheds () =
  let o = Server.run (small_cfg ~profile:Workload.Long_txn ()) in
  Alcotest.(check bool) "long-txn overload sheds" true (o.Server.s_shed > 0);
  let o' = Server.run (small_cfg ~profile:Workload.Long_txn ()) in
  Alcotest.(check int) "shed count is deterministic" o.Server.s_shed
    o'.Server.s_shed

let test_server_admission_matches_iter () =
  (* The executors' counters and the pure replay of the admission model
     through [iter_requests] must agree exactly: shed, admitted,
     mutators and admitted-by-kind. *)
  let cfg = small_cfg ~profile:Workload.Long_txn () in
  let o = Server.run cfg in
  let wl = Server.workload cfg in
  let by_kind = Hashtbl.create 4 in
  for d = 0 to 3 do
    let shed = ref 0 and admitted = ref 0 and mutators = ref 0 in
    Server.iter_requests cfg wl ~domain:d
      ~f:(fun ~client:_ ~index:_ req ~admitted:adm ->
        if not adm then incr shed
        else begin
          incr admitted;
          let k = kind_of req in
          Hashtbl.replace by_kind k
            (1 + Option.value ~default:0 (Hashtbl.find_opt by_kind k));
          let ops =
            match req with
            | Workload.Single op -> [ op ]
            | Workload.Txn ops -> ops
          in
          if List.exists Store.op_mutates ops then incr mutators
        end);
    let pd = o.Server.s_per_domain.(d) in
    Alcotest.(check int)
      (Fmt.str "domain %d shed replay" d)
      pd.Server.d_shed !shed;
    Alcotest.(check int)
      (Fmt.str "domain %d admitted replay" d)
      pd.Server.d_admitted !admitted;
    Alcotest.(check int)
      (Fmt.str "domain %d mutators replay" d)
      pd.Server.d_mutators !mutators
  done;
  List.iter
    (fun (k, n) ->
      Alcotest.(check int) ("admitted " ^ k ^ " replay")
        (Option.value ~default:0 (Hashtbl.find_opt by_kind k)) n)
    o.Server.s_by_kind

let test_server_spec_conformance () =
  (* domains=1: replay the admitted stream through the sequential-map
     spec; the store must end byte-equal.  The run executes from the
     flat op buffer, the replay from the decoded lists, so this holds
     [Store.exec_buf] to [Store.spec_op]. *)
  List.iter
    (fun profile ->
      let cfg =
        Server.config ~clients:300 ~ops:3 ~keys:64 ~stripes:8 ~journal:true
          ~profile ~seed:11 ~domains:1 ()
      in
      let o = Server.run cfg in
      let name = Workload.profile_name profile in
      Alcotest.(check bool) (name ^ " run conserved") true o.Server.s_conserved;
      Alcotest.(check bool) (name ^ " journal ok") true o.Server.s_journal_ok;
      let wl = Server.workload cfg in
      let model = Array.make cfg.Server.c_keys 0 in
      Server.iter_requests cfg wl ~domain:0
        ~f:(fun ~client:_ ~index:_ req ~admitted ->
          if admitted then
            match req with
            | Workload.Single op -> ignore (Store.spec_op model op)
            | Workload.Txn ops ->
                List.iter (fun op -> ignore (Store.spec_op model op)) ops);
      Alcotest.(check (array int))
        (name ^ " final store = spec replay, key by key")
        model o.Server.s_final)
    Workload.profiles

(* The canonical serve document is pinned for every profile (2 domains,
   journal on, small population): [golden/serve-<profile>.json]. *)
let test_server_golden () =
  List.iter
    (fun profile ->
      let name = Workload.profile_name profile in
      let cfg =
        Server.config ~clients:400 ~ops:3 ~keys:128 ~stripes:16 ~journal:true
          ~profile ~seed:42 ~domains:2 ()
      in
      match golden_lines (Fmt.str "golden/serve-%s.json" name) with
      | [ want ] ->
          Alcotest.(check string)
            (name ^ " canonical document")
            want
            (Server.to_json (Server.run cfg))
      | _ -> Alcotest.failf "golden/serve-%s.json: expected one line" name)
    Workload.profiles

(* ------------------------------------------------------------------ *)
(* Op-clock telemetry: the serving-mode export regression. *)

let test_server_telemetry_op_clock () =
  let cfg = small_cfg () in
  let capture () =
    let snaps = ref [] in
    let o = Server.run ~on_sample:(fun s -> snaps := s :: !snaps) cfg in
    ignore o;
    List.rev_map Tel.Export.to_jsonl !snaps
  in
  let run1 = capture () in
  Alcotest.(check int) "two scrapes per run" 2 (List.length run1);
  Alcotest.(check bool) "byte-deterministic serving-mode export" true
    (run1 = capture ());
  (* The timestamps are the op clock — 0 and total-requests — never
     the wall clock. *)
  let snaps = ref [] in
  ignore (Server.run ~on_sample:(fun s -> snaps := s :: !snaps) cfg);
  let ts = List.rev_map (fun s -> s.Tel.Registry.ts) !snaps in
  Alcotest.(check (list int)) "scrape ts on the op clock"
    [ 0; Server.total_requests cfg ]
    ts

(* ------------------------------------------------------------------ *)
(* Arrival schedules and the load curve. *)

module Arrival = Tm_serve.Arrival
module Loadcurve = Tm_serve.Loadcurve

let prop_arrival_deterministic =
  QCheck.Test.make ~count:100
    ~name:"arrival schedule is a pure function of (kind, rate, seed)"
    QCheck.(triple bool (int_range 1 1_000) small_int)
    (fun (poisson, rate_k, seed) ->
      let kind = if poisson then Arrival.Poisson else Arrival.Constant in
      let rate = float_of_int (rate_k * 100) in
      let sched () =
        Arrival.schedule (Arrival.make ~kind ~rate ~seed) ~n:64
      in
      let s = sched () in
      s = sched ()
      && s.(0) >= 0
      && Array.for_all (fun t -> t >= 0) s
      &&
      let ok = ref true in
      for i = 1 to 63 do
        if s.(i) < s.(i - 1) then ok := false
      done;
      !ok)

let test_arrival_constant () =
  let a = Arrival.make ~kind:Arrival.Constant ~rate:1_000_000. ~seed:0 in
  Alcotest.(check int) "period" 1_000 (Arrival.period_ns a);
  Alcotest.(check (array int)) "metronome"
    [| 0; 1_000; 2_000; 3_000 |]
    (Arrival.schedule a ~n:4);
  Alcotest.check_raises "rate must be positive"
    (Invalid_argument "Arrival.make: rate must be positive") (fun () ->
      ignore (Arrival.make ~kind:Arrival.Constant ~rate:0. ~seed:0))

let test_arrival_cursor_stride () =
  (* A domain serving every 4th global index skips to it and reads the
     same arrival time the flat schedule assigns — the striding
     contract the open-loop server relies on. *)
  let a = Arrival.make ~kind:Arrival.Poisson ~rate:50_000. ~seed:7 in
  let sched = Arrival.schedule a ~n:100 in
  for d = 0 to 3 do
    let c = Arrival.cursor a in
    let prev = ref (-1) in
    for i = 0 to 24 do
      let g = (i * 4) + d in
      Arrival.skip c (g - !prev - 1);
      prev := g;
      Alcotest.(check int)
        (Fmt.str "domain %d arrival %d" d g)
        sched.(g) (Arrival.next c)
    done
  done

let lc_cfg domains =
  Server.config ~clients:500 ~ops:2 ~keys:64 ~profile:Workload.Mixed
    ~seed:42 ~domains ()

let test_loadcurve_deterministic () =
  let ladder = [ 10_000.; 50_000.; 200_000.; 1_000_000. ] in
  let run domains =
    Loadcurve.to_json
      (Loadcurve.run ~kind:Arrival.Poisson ~ladder (lc_cfg domains))
  in
  let j1 = run 1 in
  Alcotest.(check string) "two runs, byte-identical" j1 (run 1);
  Alcotest.(check string) "domains 1 vs 4, byte-identical" j1 (run 4)

let test_loadcurve_counts_and_knee () =
  let ladder = [ 10_000.; 100_000.; 1_000_000.; 10_000_000. ] in
  let curve = Loadcurve.run ~kind:Arrival.Constant ~ladder (lc_cfg 1) in
  let offered = 500 * 2 in
  List.iter
    (fun p ->
      Alcotest.(check int) "offered = clients * ops" offered
        p.Loadcurve.p_offered;
      Alcotest.(check int) "admitted + shed = offered" offered
        (p.Loadcurve.p_admitted + p.Loadcurve.p_shed))
    curve.Loadcurve.v_points;
  let sheds = List.map (fun p -> p.Loadcurve.p_shed) curve.Loadcurve.v_points in
  Alcotest.(check int) "no shedding far below capacity" 0 (List.hd sheds);
  Alcotest.(check bool) "overload sheds" true
    (List.nth sheds 3 > 0);
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "shed is monotone in offered rate" true
    (nondecreasing sheds);
  let k = Loadcurve.knee (Loadcurve.curve_xy curve) in
  Alcotest.(check bool) "knee lies inside the swept ladder" true
    (List.mem k ladder);
  Alcotest.check_raises "empty ladder rejected"
    (Invalid_argument "Loadcurve.run: empty ladder") (fun () ->
      ignore (Loadcurve.run ~kind:Arrival.Constant ~ladder:[] (lc_cfg 1)))

let test_server_open_loop_invariance () =
  (* The arrival clock paces dispatch but never the canonical outcome:
     admissions match the closed-loop run exactly and the document
     differs only in its arrival echo. *)
  let cfg = small_cfg ~domains:2 () in
  let closed = Server.run cfg in
  let arrival =
    Arrival.make ~kind:Arrival.Poisson ~rate:2_000_000. ~seed:42
  in
  let ocfg = { cfg with Server.c_arrival = Some arrival } in
  let opened = Server.run ocfg in
  Alcotest.(check int) "admitted unchanged" closed.Server.s_admitted
    opened.Server.s_admitted;
  Alcotest.(check int) "shed unchanged" closed.Server.s_shed
    opened.Server.s_shed;
  Alcotest.(check bool) "by-kind unchanged" true
    (closed.Server.s_by_kind = opened.Server.s_by_kind);
  Alcotest.(check string) "open-loop canonical json byte-deterministic"
    (Server.to_json opened)
    (Server.to_json (Server.run ocfg));
  Alcotest.(check bool) "closed run carries no recorder summary" true
    (closed.Server.s_open = None);
  Alcotest.(check bool) "open run carries one" true
    (opened.Server.s_open <> None);
  (* The two documents differ only in the arrival echo. *)
  let replace_once ~sub ~by s =
    let n = String.length s and m = String.length sub in
    let rec find i =
      if i + m > n then None
      else if String.sub s i m = sub then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> s
    | Some i -> String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
  in
  Alcotest.(check string) "documents agree outside the arrival field"
    (Server.to_json closed)
    (replace_once
       ~sub:{|"arrival":{"kind":"poisson","rate":2000000.0}|}
       ~by:{|"arrival":{"kind":"closed"}|}
       (Server.to_json opened))

(* ------------------------------------------------------------------ *)
(* Chaos against the serving path. *)

let chaos_cfg algo =
  Server.config ~algo ~clients:64 ~ops:4 ~keys:64 ~stripes:8
    ~profile:Workload.Write_heavy ~seed:42 ~domains:4 ()

(* Short windows like test_chaos: the runner already waits for the
   fault onsets before it opens the window. *)
let serve_chaos plan cfg =
  Runner.run ~workload:(Server.chaos_workload cfg) ~warmup:0.02 ~window:0.05
    plan

let test_chaos_serve_verdicts scenario algo () =
  match Plan.make ~algo ~scenario ~seed:42 ~domains:4 () with
  | Error m -> Alcotest.fail m
  | Ok plan ->
      let o = serve_chaos plan (chaos_cfg algo) in
      if not o.Runner.o_ok then Fmt.epr "%a@." Runner.pp_table o;
      Alcotest.(check bool)
        (Fmt.str "%s %s: serving path matches Figure-2 verdicts" scenario
           (Stm.Algo.name algo))
        true o.Runner.o_ok;
      Alcotest.(check string) "the verdicts name the serving workload"
        "serve[write-heavy]" o.Runner.o_workload;
      (* The trace is the planned schedule, byte-for-byte, then one
         verdict instant per domain. *)
      let planned = Plan.trace_events plan in
      let n = List.length planned in
      Alcotest.(check bool) "trace starts with the planned schedule" true
        (List.filteri (fun i _ -> i < n) o.Runner.o_events = planned);
      Alcotest.(check (list int)) "one chaos-verdict instant per domain"
        [ 0; 1; 2; 3 ]
        (List.filter_map
           (fun (e : Tev.t) ->
             if e.Tev.name = "chaos-verdict" then Some e.Tev.tid else None)
           o.Runner.o_events)

let test_chaos_serve_healthy () =
  match Plan.make ~scenario:"healthy" ~seed:1 ~domains:2 () with
  | Error m -> Alcotest.fail m
  | Ok plan ->
      let o = serve_chaos plan (chaos_cfg Stm.Algo.Tl2) in
      Alcotest.(check bool) "healthy serving run progresses" true
        o.Runner.o_ok

let chaos_serve_cases =
  List.concat_map
    (fun scenario ->
      List.map
        (fun algo ->
          Alcotest.test_case
            (Fmt.str "%s %s" scenario (Stm.Algo.name algo))
            `Quick
            (test_chaos_serve_verdicts scenario algo))
        Stm.Algo.all)
    [ "crash-holding-locks"; "parasitic-only"; "mixed" ]
  @ [ Alcotest.test_case "healthy" `Quick test_chaos_serve_healthy ]

(* ------------------------------------------------------------------ *)

let qsuite = List.map QCheck_alcotest.to_alcotest
  [ prop_zipf_pmf_monotone; prop_zipf_cum_monotone;
    prop_zipf_sample_deterministic ]

let () =
  Alcotest.run "serve"
    [
      ( "zipf",
        qsuite
        @ [
            Alcotest.test_case "hot-set mass" `Quick test_zipf_hot_set_mass;
            Alcotest.test_case "sample = inversion" `Quick
              test_zipf_sample_matches_inversion;
          ] );
      ( "workload",
        [
          Alcotest.test_case "deterministic replay" `Quick
            test_workload_deterministic;
          Alcotest.test_case "planes and conservation" `Quick
            test_workload_planes_and_conservation;
          Alcotest.test_case "admission costs" `Quick test_workload_costs;
          Alcotest.test_case "shape prices the request" `Quick
            test_workload_shape_cost;
          Alcotest.test_case "golden request stream" `Quick
            test_workload_golden_stream;
          Alcotest.test_case "shape and fill allocate nothing" `Quick
            test_workload_zero_alloc;
        ] );
      ( "store",
        [
          Alcotest.test_case "differential vs spec (sequential)" `Quick
            test_store_differential_sequential;
          Alcotest.test_case "differential vs spec (concurrent)" `Quick
            test_store_differential_concurrent;
          Alcotest.test_case "Get-shaped exec_buf allocates nothing" `Quick
            test_exec_buf_zero_alloc;
        ] );
      ( "server",
        [
          Alcotest.test_case "canonical json byte-deterministic" `Quick
            test_server_canonical_deterministic;
          Alcotest.test_case "count invariants" `Quick test_server_counts;
          Alcotest.test_case "one commit per admitted request" `Quick
            test_server_one_commit_per_request;
          Alcotest.test_case "long-txn sheds deterministically" `Quick
            test_server_long_txn_sheds;
          Alcotest.test_case "admission matches pure replay" `Quick
            test_server_admission_matches_iter;
          Alcotest.test_case "sequential-spec conformance" `Quick
            test_server_spec_conformance;
          Alcotest.test_case "golden canonical documents" `Quick
            test_server_golden;
          Alcotest.test_case "telemetry rides the op clock" `Quick
            test_server_telemetry_op_clock;
        ] );
      ( "arrival",
        [
          QCheck_alcotest.to_alcotest prop_arrival_deterministic;
          Alcotest.test_case "constant kind is a metronome" `Quick
            test_arrival_constant;
          Alcotest.test_case "cursor striding matches the schedule" `Quick
            test_arrival_cursor_stride;
        ] );
      ( "loadcurve",
        [
          Alcotest.test_case "canonical json ignores domains" `Quick
            test_loadcurve_deterministic;
          Alcotest.test_case "counts, shedding and the knee" `Quick
            test_loadcurve_counts_and_knee;
          Alcotest.test_case "open loop leaves the canon unchanged" `Quick
            test_server_open_loop_invariance;
        ] );
      ("chaos-serve", chaos_serve_cases);
    ]
