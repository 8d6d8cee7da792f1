(* Unit tests for the benchmark's own arithmetic: summaries over
   repetitions, histogram quantiles and SLO attainment, span self
   time. *)

open Perfbench

let feq = Alcotest.float 1e-9

let triple = Alcotest.(triple (float 1e-9) (float 1e-9) (float 1e-9))

let test_median () =
  Alcotest.check feq "odd" 3.0 (Stats.median [| 5.; 1.; 3. |]);
  Alcotest.check feq "even" 2.5 (Stats.median [| 4.; 1.; 2.; 3. |]);
  Alcotest.check feq "single" 7.0 (Stats.median [| 7. |])

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  Alcotest.check triple "1..10" (2.75, 5.5, 8.25)
    (Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check triple "unsorted" (1.4375, 2.75, 7.625)
    (Stats.quartiles [| 3.5; 1.25; 9.0; 2.0 |]);
  Alcotest.check triple "three" (1.0, 4.0, 5.0)
    (Stats.quartiles [| 5.; 1.; 4. |]);
  Alcotest.check triple "two" (7.5, 15.0, 22.5) (Stats.quartiles [| 10.; 20. |])

let test_spread () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check feq "iqr over median" ((8.25 -. 2.75) /. 5.5)
    (Stats.spread xs);
  Alcotest.check feq "constant" 0.0 (Stats.spread [| 4.; 4.; 4.; 4. |])

(* Buckets [0], [1..3], [4..7], [8..15], overflow. *)
let upper k = [| 0; 3; 7; 15; max_int |].(k)

let test_quantile () =
  let buckets = [| 0; 0; 4; 0; 0 |] in
  let q p = Stats.quantile ~upper ~buckets ~max_sample:7 p in
  (* rank 1 of 4 in [4..7] sits a quarter of the way across *)
  Alcotest.check feq "p25" 4.75 (q 0.25);
  Alcotest.check feq "p100 = bucket top" 7.0 (q 1.0);
  let clamped = Stats.quantile ~upper ~buckets ~max_sample:5 1.0 in
  Alcotest.check feq "clamped to max" 5.0 clamped;
  let over = [| 1; 0; 0; 0; 1 |] in
  Alcotest.check feq "overflow reads max" 900.0
    (Stats.quantile ~upper ~buckets:over ~max_sample:900 1.0);
  Alcotest.check feq "empty" 0.0
    (Stats.quantile ~upper ~buckets:[| 0; 0; 0; 0; 0 |] ~max_sample:0 0.5)

let test_slo () =
  let buckets = [| 1; 2; 3; 4; 5 |] in
  let slo limit = Stats.slo_attain ~upper ~buckets ~limit ~offered:20 in
  (* limit 7 takes buckets 0..2 whole; limit 10 cannot take [8..15] *)
  Alcotest.check feq "bucket top within" (6. /. 20.) (slo 7);
  Alcotest.check feq "bucket straddling excluded" (6. /. 20.) (slo 10);
  Alcotest.check feq "all but overflow" (10. /. 20.) (slo 15);
  Alcotest.check feq "overflow never counts" (10. /. 20.) (slo max_int)

let test_self_time () =
  let st name want children =
    Alcotest.(check int) name want (Spans.self_time ~start:0 ~stop:10 children)
  in
  st "leaf" 10 [];
  st "two children" 4 [ (1, 4); (5, 8) ];
  st "overlap counted once" 4 [ (1, 6); (3, 7) ];
  st "clipped to parent" 5 [ (-5, 2); (7, 20) ];
  st "outside" 10 [ (10, 12); (-3, 0) ]

let test_store () =
  let s = Spans.create ~names:[| "req"; "txn"; "op" |] ~capacity:8 in
  let r = Spans.open_ s ~name:0 ~parent:(-1) ~key:0 ~start:100 in
  let x = Spans.open_ s ~name:1 ~parent:r ~key:0 ~start:110 in
  let o1 = Spans.open_ s ~name:2 ~parent:x ~key:0 ~start:112 in
  Spans.close s o1 ~stop:115;
  let o2 = Spans.open_ s ~name:2 ~parent:x ~key:0 ~start:116 in
  Spans.close s o2 ~stop:121;
  Spans.close s x ~stop:130;
  Spans.close s r ~stop:140;
  let r2 = Spans.open_ s ~name:0 ~parent:(-1) ~key:1 ~start:140 in
  Spans.close s r2 ~stop:150;
  Alcotest.(check (array int))
    "self" [| 20; 12; 3; 5; 10 |] (Spans.self_times s);
  let means = Spans.mean_self s in
  Alcotest.(check (list (pair string (float 1e-9))))
    "means"
    [ ("req", 15.0); ("txn", 12.0); ("op", 4.0) ]
    means;
  let evs =
    Spans.to_events s ~keys:1 ~category:(fun _ -> Tm_trace.Trace_event.Txn)
  in
  let shape =
    List.map
      (fun e -> Tm_trace.Trace_event.(phase_code e.phase, e.name, e.ts))
      evs
  in
  Alcotest.(check (list (triple string string int)))
    "nested begin/end, key filter"
    [
      ("B", "req", 0); ("B", "txn", 10); ("B", "op", 12); ("E", "op", 15);
      ("B", "op", 16); ("E", "op", 21); ("E", "txn", 30); ("E", "req", 40);
    ]
    shape

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles match python" `Quick test_quartiles;
          Alcotest.test_case "spread" `Quick test_spread;
          Alcotest.test_case "bucket quantile" `Quick test_quantile;
          Alcotest.test_case "slo attainment" `Quick test_slo;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "store and export" `Quick test_store;
        ] );
    ]
