(* Tests for the real multicore STM runtime (lib/stm): single-domain
   semantics, rollback, and multi-domain stress with invariant checks. *)

module Stm = Tm_stm.Stm

let spawn_all fns = List.map Domain.spawn fns |> List.iter Domain.join

(* ------------------------------------------------------------------ *)
(* Single-domain semantics. *)

let test_basic_read_write () =
  let v = Stm.tvar 1 in
  let r =
    Stm.atomically (fun () ->
        let a = Stm.read v in
        Stm.write v (a + 10);
        Stm.read v)
  in
  Alcotest.(check int) "reads own write" 11 r;
  Alcotest.(check int) "committed" 11 (Stm.read v)

let test_rollback_on_exception () =
  let v = Stm.tvar 0 in
  (try
     Stm.atomically (fun () ->
         Stm.write v 42;
         raise Exit)
   with Exit -> ());
  Alcotest.(check int) "write rolled back" 0 (Stm.read v)

let test_write_outside_rejected () =
  let v = Stm.tvar 0 in
  Alcotest.check_raises "write outside transaction"
    (Invalid_argument "Stm.write outside a transaction") (fun () ->
      Stm.write v 1)

let test_snapshot_read_outside () =
  let v = Stm.tvar 5 in
  Alcotest.(check int) "snapshot read" 5 (Stm.read v);
  Alcotest.(check bool) "not in transaction" false (Stm.in_transaction ())

let test_nesting_flattens () =
  let v = Stm.tvar 0 in
  Stm.atomically (fun () ->
      Alcotest.(check bool) "in transaction" true (Stm.in_transaction ());
      (* Txn_counter.add uses atomically internally: must join us. *)
      Stm.write v 1;
      Stm.atomically (fun () -> Stm.write v (Stm.read v + 1)));
  Alcotest.(check int) "nested writes committed once" 2 (Stm.read v)

let test_two_tvars_consistent () =
  let a = Stm.tvar 1 and b = Stm.tvar 1 in
  Stm.atomically (fun () ->
      Stm.write a 2;
      Stm.write b 2);
  let sa, sb = Stm.atomically (fun () -> (Stm.read a, Stm.read b)) in
  Alcotest.(check (pair int int)) "both updated" (2, 2) (sa, sb)

let test_polymorphic_tvars () =
  let s = Stm.tvar "hello" and l = Stm.tvar [ 1; 2 ] in
  Stm.atomically (fun () ->
      Stm.write s (Stm.read s ^ " world");
      Stm.write l (3 :: Stm.read l));
  Alcotest.(check string) "string tvar" "hello world" (Stm.read s);
  Alcotest.(check (list int)) "list tvar" [ 3; 1; 2 ] (Stm.read l)

(* ------------------------------------------------------------------ *)
(* Data structures: sequential model checks. *)

let test_counter () =
  let c = Tm_stm.Txn_counter.make 0 in
  for _ = 1 to 10 do
    Tm_stm.Txn_counter.incr c
  done;
  Tm_stm.Txn_counter.add c 5;
  Alcotest.(check int) "counter" 15 (Tm_stm.Txn_counter.get c)

let test_list_model =
  QCheck2.Test.make ~count:100 ~name:"txn_list behaves like a set"
    QCheck2.Gen.(list (pair bool (int_bound 20)))
    (fun ops ->
      let l = Tm_stm.Txn_list.make () in
      let model = ref [] in
      List.iter
        (fun (is_add, k) ->
          if is_add then begin
            let added = Tm_stm.Txn_list.add l k in
            let expected = not (List.mem k !model) in
            if added <> expected then failwith "add mismatch";
            if added then model := k :: !model
          end
          else begin
            let removed = Tm_stm.Txn_list.remove l k in
            let expected = List.mem k !model in
            if removed <> expected then failwith "remove mismatch";
            if removed then model := List.filter (( <> ) k) !model
          end)
        ops;
      Tm_stm.Txn_list.to_list l = List.sort_uniq Int.compare !model)

let test_queue_fifo () =
  let q = Tm_stm.Txn_queue.make () in
  List.iter (Tm_stm.Txn_queue.push q) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop 1" (Some 1) (Tm_stm.Txn_queue.pop q);
  Tm_stm.Txn_queue.push q 4;
  Alcotest.(check (option int)) "pop 2" (Some 2) (Tm_stm.Txn_queue.pop q);
  Alcotest.(check (list int)) "rest" [ 3; 4 ] (Tm_stm.Txn_queue.to_list q);
  Alcotest.(check int) "length" 2 (Tm_stm.Txn_queue.length q);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Tm_stm.Txn_queue.pop q);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Tm_stm.Txn_queue.pop q);
  Alcotest.(check (option int)) "empty" None (Tm_stm.Txn_queue.pop q)

let test_stack () =
  let s = Tm_stm.Txn_stack.make () in
  Alcotest.(check (option int)) "empty pop" None (Tm_stm.Txn_stack.pop s);
  Tm_stm.Txn_stack.push s 1;
  Tm_stm.Txn_stack.push s 2;
  Alcotest.(check (option int)) "peek" (Some 2) (Tm_stm.Txn_stack.peek s);
  Alcotest.(check int) "length" 2 (Tm_stm.Txn_stack.length s);
  Alcotest.(check (option int)) "lifo pop" (Some 2) (Tm_stm.Txn_stack.pop s);
  Alcotest.(check (list int)) "rest" [ 1 ] (Tm_stm.Txn_stack.to_list s)

let test_map_model =
  QCheck2.Test.make ~count:100 ~name:"txn_map behaves like a map and stays \
                                      balanced"
    QCheck2.Gen.(list (pair (int_bound 2) (int_bound 30)))
    (fun ops ->
      let m = Tm_stm.Txn_map.make () in
      let model = Hashtbl.create 16 in
      List.iter
        (fun (op, k) ->
          match op with
          | 0 ->
              Tm_stm.Txn_map.set m k (k * 10);
              Hashtbl.replace model k (k * 10)
          | 1 ->
              let removed = Tm_stm.Txn_map.remove m k in
              let expected = Hashtbl.mem model k in
              if removed <> expected then failwith "remove mismatch";
              Hashtbl.remove model k
          | _ ->
              let found = Tm_stm.Txn_map.find m k in
              let expected = Hashtbl.find_opt model k in
              if found <> expected then failwith "find mismatch")
        ops;
      let expected_bindings =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) model []
        |> List.sort compare
      in
      Tm_stm.Txn_map.bindings m = expected_bindings
      && Tm_stm.Txn_map.check_balanced m)

let test_map_sequential () =
  let m = Tm_stm.Txn_map.make () in
  for i = 1 to 100 do
    Tm_stm.Txn_map.set m i (i * i)
  done;
  Alcotest.(check int) "cardinal" 100 (Tm_stm.Txn_map.cardinal m);
  Alcotest.(check bool) "balanced after ascending inserts" true
    (Tm_stm.Txn_map.check_balanced m);
  Alcotest.(check (option int)) "find" (Some 49) (Tm_stm.Txn_map.find m 7);
  Alcotest.(check bool) "remove" true (Tm_stm.Txn_map.remove m 7);
  Alcotest.(check (option int)) "gone" None (Tm_stm.Txn_map.find m 7);
  Alcotest.(check bool) "still balanced" true (Tm_stm.Txn_map.check_balanced m)

let test_hashtbl () =
  let h = Tm_stm.Txn_hashtbl.make ~buckets:4 () in
  Tm_stm.Txn_hashtbl.set h 1 "one";
  Tm_stm.Txn_hashtbl.set h 5 "five";
  Tm_stm.Txn_hashtbl.set h 1 "uno";
  Alcotest.(check (option string)) "overwrite" (Some "uno")
    (Tm_stm.Txn_hashtbl.find h 1);
  Alcotest.(check (option string)) "other key" (Some "five")
    (Tm_stm.Txn_hashtbl.find h 5);
  Alcotest.(check int) "length" 2 (Tm_stm.Txn_hashtbl.length h);
  Alcotest.(check bool) "remove" true (Tm_stm.Txn_hashtbl.remove h 1);
  Alcotest.(check bool) "remove again" false (Tm_stm.Txn_hashtbl.remove h 1);
  Alcotest.(check (option string)) "gone" None (Tm_stm.Txn_hashtbl.find h 1)

(* ------------------------------------------------------------------ *)
(* Multicore stress. *)

let ndomains = 4

let test_parallel_counter () =
  let c = Tm_stm.Txn_counter.make 0 in
  let iters = 3000 in
  spawn_all
    (List.init ndomains (fun _ () ->
         for _ = 1 to iters do
           Tm_stm.Txn_counter.incr c
         done));
  Alcotest.(check int) "no lost updates" (ndomains * iters)
    (Tm_stm.Txn_counter.get c)

let test_parallel_bank () =
  let accounts = 8 and initial = 100 in
  let bank = Tm_stm.Txn_bank.make ~accounts ~initial in
  let violations = Atomic.make 0 in
  let workers =
    List.init ndomains (fun d () ->
        let st = ref (d + 1) in
        let rand bound =
          st := (!st * 1103515245) + 12345;
          abs !st mod bound
        in
        for _ = 1 to 2000 do
          let a = rand accounts in
          let b = (a + 1 + rand (accounts - 1)) mod accounts in
          ignore (Tm_stm.Txn_bank.transfer bank ~from_:a ~to_:b ~amount:(1 + rand 5))
        done)
  in
  let checker () =
    for _ = 1 to 200 do
      if Tm_stm.Txn_bank.total bank <> accounts * initial then
        Atomic.incr violations
    done
  in
  spawn_all (checker :: workers);
  Alcotest.(check int) "total balance always invariant" 0
    (Atomic.get violations);
  Alcotest.(check int) "final total" (accounts * initial)
    (Tm_stm.Txn_bank.total bank)

let test_parallel_list () =
  let l = Tm_stm.Txn_list.make () in
  let per = 300 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 0 to per - 1 do
           ignore (Tm_stm.Txn_list.add l ((i * ndomains) + d))
         done));
  let contents = Tm_stm.Txn_list.to_list l in
  Alcotest.(check int) "all inserted" (ndomains * per) (List.length contents);
  Alcotest.(check (list int))
    "sorted and complete"
    (List.init (ndomains * per) Fun.id)
    contents

let test_parallel_queue () =
  let q = Tm_stm.Txn_queue.make () in
  let per = 2000 in
  let popped = Array.make ndomains 0 in
  let producers =
    List.init (ndomains / 2) (fun d () ->
        for i = 1 to per do
          Tm_stm.Txn_queue.push q ((d * per) + i)
        done)
  in
  let total_expected = ndomains / 2 * per in
  let taken = Atomic.make 0 in
  let consumers =
    List.init (ndomains / 2) (fun d () ->
        let continue = ref true in
        while !continue do
          match Tm_stm.Txn_queue.pop q with
          | Some _ ->
              popped.(d) <- popped.(d) + 1;
              ignore (Atomic.fetch_and_add taken 1)
          | None -> if Atomic.get taken >= total_expected then continue := false
        done)
  in
  spawn_all (producers @ consumers);
  Alcotest.(check int) "all elements consumed" total_expected
    (Atomic.get taken);
  Alcotest.(check (option int)) "queue drained" None (Tm_stm.Txn_queue.pop q)

let test_parallel_map () =
  let m = Tm_stm.Txn_map.make () in
  let per = 250 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 0 to per - 1 do
           Tm_stm.Txn_map.set m ((i * ndomains) + d) d
         done));
  Alcotest.(check int) "all keys present" (ndomains * per)
    (Tm_stm.Txn_map.cardinal m);
  Alcotest.(check bool) "balanced under concurrency" true
    (Tm_stm.Txn_map.check_balanced m);
  Alcotest.(check (list int)) "keys complete"
    (List.init (ndomains * per) Fun.id)
    (List.map fst (Tm_stm.Txn_map.bindings m))

let test_parallel_stack () =
  let s = Tm_stm.Txn_stack.make () in
  let per = 2000 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 1 to per do
           Tm_stm.Txn_stack.push s ((d * per) + i)
         done));
  Alcotest.(check int) "nothing lost" (ndomains * per)
    (Tm_stm.Txn_stack.length s);
  let sorted = List.sort Int.compare (Tm_stm.Txn_stack.to_list s) in
  Alcotest.(check bool) "all distinct elements present" true
    (sorted = List.init (ndomains * per) (fun i -> i + 1))

let test_parallel_hashtbl () =
  let h = Tm_stm.Txn_hashtbl.make ~buckets:16 () in
  let per = 500 in
  spawn_all
    (List.init ndomains (fun d () ->
         for i = 0 to per - 1 do
           Tm_stm.Txn_hashtbl.set h ((i * ndomains) + d) d
         done));
  Alcotest.(check int) "all keys present" (ndomains * per)
    (Tm_stm.Txn_hashtbl.length h);
  Alcotest.(check (option int)) "spot check" (Some 1)
    (Tm_stm.Txn_hashtbl.find h (ndomains + 1))

(* The bank hammer with snapshot observers: worker domains fire transfers
   while observer domains repeatedly sum every account *twice inside one
   transaction* — any transaction observing an inconsistent snapshot
   (torn between two commits) would see the two sums differ, or a total
   off the invariant.  This is the opacity claim of the runtime exercised
   under real concurrency. *)
let test_bank_snapshot_consistency () =
  let accounts = 12 and initial = 100 in
  let bank = Tm_stm.Txn_bank.make ~accounts ~initial in
  let expected_total = accounts * initial in
  let workers_done = Atomic.make 0 in
  let nworkers = ndomains in
  let violations = Atomic.make 0 in
  let workers =
    List.init nworkers (fun d () ->
        let st = ref ((d * 7) + 1) in
        let rand bound =
          st := (!st * 1103515245) + 12345;
          abs !st mod bound
        in
        for _ = 1 to 3000 do
          let a = rand accounts in
          let b = (a + 1 + rand (accounts - 1)) mod accounts in
          ignore
            (Tm_stm.Txn_bank.transfer bank ~from_:a ~to_:b ~amount:(1 + rand 7))
        done;
        Atomic.incr workers_done)
  in
  let observers =
    List.init 2 (fun _ () ->
        while Atomic.get workers_done < nworkers do
          let sum1, sum2 =
            Stm.atomically (fun () ->
                let sum () =
                  let acc = ref 0 in
                  for i = 0 to accounts - 1 do
                    acc := !acc + Tm_stm.Txn_bank.balance bank i
                  done;
                  !acc
                in
                let s1 = sum () in
                let s2 = sum () in
                (s1, s2))
          in
          if sum1 <> sum2 then Atomic.incr violations;
          if sum1 <> expected_total then Atomic.incr violations
        done)
  in
  spawn_all (workers @ observers);
  Alcotest.(check int) "no transaction saw an inconsistent snapshot" 0
    (Atomic.get violations);
  Alcotest.(check int) "total balance invariant after the storm"
    expected_total (Tm_stm.Txn_bank.total bank);
  Alcotest.(check bool) "every account non-negative" true
    (List.for_all
       (fun i -> Tm_stm.Txn_bank.balance bank i >= 0)
       (List.init accounts Fun.id))

(* Model-based sequential check of the core runtime: random transactional
   programs against a reference association list, including mid-program
   user aborts (exception) whose writes must all vanish. *)
let test_stm_model =
  QCheck2.Test.make ~count:150 ~name:"Stm behaves like an atomic store"
    QCheck2.Gen.(list (triple (int_bound 3) (int_bound 4) (int_bound 9)))
    (fun programs ->
      let tvars = Array.init 5 (fun _ -> Stm.tvar 0) in
      let model = Array.make 5 0 in
      let exception User_abort in
      List.iter
        (fun (kind, x, v) ->
          match kind with
          | 0 ->
              Stm.atomically (fun () -> Stm.write tvars.(x) v);
              model.(x) <- v
          | 1 ->
              let got = Stm.atomically (fun () -> Stm.read tvars.(x)) in
              if got <> model.(x) then failwith "read mismatch"
          | 2 ->
              (* A transaction that writes two t-variables then aborts by
                 exception: nothing may survive. *)
              (try
                 Stm.atomically (fun () ->
                     Stm.write tvars.(x) (v + 100);
                     Stm.write tvars.((x + 1) mod 5) (v + 200);
                     raise User_abort)
               with User_abort -> ())
          | _ ->
              Stm.atomically (fun () ->
                  Stm.write tvars.(x) (Stm.read tvars.(x) + v));
              model.(x) <- model.(x) + v)
        programs;
      Array.for_all2 ( = ) model (Array.map Stm.read tvars))

(* ------------------------------------------------------------------ *)
(* The global-lock core through the facade: no aborts without
   contention. *)

let with_glock f () = Stm.with_algo Stm.Algo.Global_lock f

let test_lock_stm_basic =
  with_glock (fun () ->
      let v = Stm.tvar 1 in
      let r =
        Stm.atomically (fun () ->
            Stm.write v (Stm.read v + 10);
            Stm.read v)
      in
      Alcotest.(check int) "reads own write" 11 r;
      Alcotest.(check int) "committed" 11 (Stm.read v);
      Alcotest.check_raises "write outside transaction"
        (Invalid_argument "Stm.write outside a transaction") (fun () ->
          Stm.write v 0))

let test_lock_stm_every_txn_commits =
  with_glock (fun () ->
      let c0, a0 = Stm.stats () in
      let v = Stm.tvar 0 in
      for _ = 1 to 50 do
        Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
      done;
      let c1, a1 = Stm.stats () in
      Alcotest.(check int) "fifty increments" 50 (Stm.read v);
      Alcotest.(check int) "fifty commits" 50 (c1 - c0);
      Alcotest.(check int) "no aborts" 0 (a1 - a0))

let test_lock_stm_parallel_counter =
  with_glock (fun () ->
      let v = Stm.tvar 0 in
      let iters = 3000 in
      spawn_all
        (List.init ndomains (fun _ () ->
             for _ = 1 to iters do
               Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
             done));
      Alcotest.(check int) "no lost updates" (ndomains * iters) (Stm.read v))

let test_stats_move () =
  let before_c, _ = Stm.stats () in
  let v = Stm.tvar 0 in
  Stm.atomically (fun () -> Stm.write v 1);
  let after_c, _ = Stm.stats () in
  Alcotest.(check bool) "commit counted" true (after_c > before_c)

(* ------------------------------------------------------------------ *)
(* The algorithm zoo: every core behind [Stm.Algo] must pass the same
   semantics, the same snapshot-consistency stress, and keep its
   telemetry/chaos seam labels truthful. *)

let test_zoo_semantics () =
  List.iter
    (fun a ->
      let name = Stm.Algo.name a in
      Stm.with_algo a (fun () ->
          let v = Stm.tvar 1 in
          let r =
            Stm.atomically (fun () ->
                Stm.write v (Stm.read v + 10);
                Stm.read v)
          in
          Alcotest.(check int) (name ^ ": reads own write") 11 r;
          Alcotest.(check int) (name ^ ": committed") 11 (Stm.read v);
          (try
             Stm.atomically (fun () ->
                 Stm.write v 99;
                 raise Exit)
           with Exit -> ());
          Alcotest.(check int) (name ^ ": rollback on exception") 11 (Stm.read v);
          let s = Stm.tvar "x" and l = Stm.tvar [ 1 ] in
          Stm.atomically (fun () ->
              Stm.write s (Stm.read s ^ "y");
              Stm.write l (2 :: Stm.read l);
              (* flat nesting must join the enclosing transaction *)
              Stm.atomically (fun () -> Stm.write l (3 :: Stm.read l)));
          Alcotest.(check string) (name ^ ": polymorphic string") "xy"
            (Stm.read s);
          Alcotest.(check (list int)) (name ^ ": nested flattens") [ 3; 2; 1 ]
            (Stm.read l)))
    Stm.Algo.all

(* The per-algorithm announcement (Algo.sites) is a promise that every
   party of the seam stays truthful: a histogram named "lock-time"
   under NOrec would measure a phase the algorithm does not have, a
   chaos plan keyed on an unreachable site never fires, a blame cause
   no core produces reads as a mechanism that is not there.  One check
   per core: record every site it reaches — through an observer and
   through the decider — on a quiet write commit and under two-domain
   contention, then check each one is announced, the announcement is
   duplicate-free and in declaration order, and the load-bearing
   presences and absences hold. *)
let sites_truthful a () =
  let name = Stm.Algo.name a in
  let announced = Stm.Algo.sites a in
  let index s =
    let rec go i = function
      | [] -> assert false
      | x :: r -> if x = s then i else go (i + 1) r
    in
    go 0 Stm.Obs.sites
  in
  let seen = Array.map (fun _ -> Atomic.make false) (Array.of_list Stm.Obs.sites) in
  let decided = Array.map (fun _ -> Atomic.make false) seen in
  let causes = Array.map (fun _ -> Atomic.make false) (Array.of_list Stm.Blame.causes) in
  let observed arr = List.filter (fun s -> Atomic.get arr.(index s)) Stm.Obs.sites in
  let has s = Atomic.get seen.(index s) in
  let check_announced what sites =
    List.iter
      (fun s ->
        if not (List.mem s announced) then
          Alcotest.failf "%s: %s site %S outside Algo.sites" name what
            (Stm.Obs.site_label s))
      sites
  in
  Alcotest.(check bool) (name ^ ": announcement duplicate-free") true
    (List.length (List.sort_uniq compare announced) = List.length announced);
  Alcotest.(check bool) (name ^ ": announcement stable") true
    (Stm.Algo.sites a = announced);
  Alcotest.(check (list int)) (name ^ ": announcement in declaration order")
    (List.sort compare (List.map index announced))
    (List.map index announced);
  Stm.with_algo a (fun () ->
      let sub = Stm.Obs.subscribe (fun s _ _ -> Atomic.set seen.(index s) true) in
      Stm.Chaos.install (fun p ->
          Atomic.set decided.(index p) true;
          Stm.Chaos.Proceed);
      Fun.protect
        ~finally:(fun () ->
          Stm.Chaos.uninstall ();
          Stm.Obs.unsubscribe sub)
        (fun () ->
          let v = Stm.tvar 0 in
          Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))));
  check_announced "observed" (observed seen);
  check_announced "decision" (observed decided);
  let quiet = observed seen in
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "%s: reaches %s" name (Stm.Obs.site_label s))
        true (List.mem s quiet))
    Stm.Obs.[ Begin; Read; Publish_time; Commit; Pre_commit; Post_commit ];
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Fmt.str "%s: decides at %s" name (Stm.Obs.site_label s))
        true
        (Atomic.get decided.(index s)))
    Stm.Obs.[ Read; Pre_commit; Post_commit ];
  (match a with
  | Stm.Algo.Tl2 ->
      Alcotest.(check bool) "tl2: times Lock" true (has Stm.Obs.Lock_time);
      Alcotest.(check bool) "tl2: times Validate" true (has Stm.Obs.Validate_time)
  | Stm.Algo.Global_lock ->
      Alcotest.(check bool) "global-lock: times Lock" true (has Stm.Obs.Lock_time);
      Alcotest.(check bool) "global-lock: never validates" false
        (has Stm.Obs.Validate_time || Atomic.get decided.(index Stm.Obs.Validate))
  | Stm.Algo.Dstm | Stm.Algo.Norec ->
      Alcotest.(check bool) (name ^ ": times Validate") true
        (has Stm.Obs.Validate_time);
      Alcotest.(check bool) (name ^ ": never per-location Lock") false
        (has Stm.Obs.Lock_time));
  if a = Stm.Algo.Norec then
    Alcotest.(check bool) "norec: never decides Lock_acquire" false
      (Atomic.get decided.(index Stm.Obs.Lock_acquire));
  (* Under contention: the conflict sites, and the blame causes the
     sink derives from them. *)
  Stm.with_algo a (fun () ->
      let sub = Stm.Obs.subscribe (fun s _ _ -> Atomic.set seen.(index s) true) in
      Stm.Blame.install
        {
          Stm.Blame.on_event =
            (fun e ->
              let rec go i = function
                | [] -> ()
                | c :: r -> if c = e.Stm.Blame.b_cause then Atomic.set causes.(i) true else go (i + 1) r
              in
              go 0 Stm.Blame.causes);
          on_progress = (fun _ -> ());
        };
      Fun.protect
        ~finally:(fun () ->
          Stm.Blame.uninstall ();
          Stm.Obs.unsubscribe sub)
        (fun () ->
          let hot = Array.init 2 (fun _ -> Stm.tvar 0) in
          spawn_all
            (List.init 2 (fun d () ->
                 Stm.Blame.set_self d;
                 for _ = 1 to 20_000 do
                   Stm.atomically (fun () ->
                       let a = Stm.read hot.(0) in
                       let b = Stm.read hot.(1) in
                       Stm.write hot.(0) (a + 1);
                       Stm.write hot.(1) (b + 1))
                 done;
                 Stm.Blame.set_self (-1)))));
  check_announced "observed" (observed seen);
  List.iteri
    (fun i c ->
      if Atomic.get causes.(i) then
        let site =
          Stm.Obs.(
            match c with
            | Stm.Blame.Read_conflict -> Read_conflict
            | Lock_busy -> Lock_busy
            | Validation -> Validation
            | Stolen -> Stolen
            | Wait_budget -> Wait_budget)
        in
        Alcotest.(check bool)
          (Fmt.str "%s: emitted cause %s is announced" name
             (Stm.Blame.cause_label c))
          true (List.mem site announced))
    Stm.Blame.causes

(* Golden emission streams ([golden/seam-<core>.txt]): one domain, a
   fixed workload under a chaos handler that aborts at fixed decision
   points, every core.  The trace recorder's event list (t-variable ids
   rebased to the workload's first t-variable) and the sequence of
   sites the telemetry probe consumes (without durations) must
   reproduce the committed streams byte for byte. *)
let seam_golden a () =
  let module Tev = Tm_trace.Trace_event in
  let name = Stm.Algo.name a in
  let tel_sites =
    Stm.Obs.[ Begin; Read; Lock_time; Validate_time; Publish_time; Commit; Abort; Retry ]
  in
  let tel = ref [] in
  Stm.with_algo a (fun () ->
      let k = ref 0 in
      Stm.Chaos.install (fun _ ->
          incr k;
          if List.mem !k [ 2; 5; 9; 14; 20; 27; 35; 44; 54; 65; 77 ] then Stm.Chaos.Abort
          else Stm.Chaos.Proceed);
      let sub =
        Stm.Obs.subscribe (fun s _ _ ->
            if List.mem s tel_sites then tel := Stm.Obs.site_label s :: !tel)
      in
      Stm.Trace.start ();
      Fun.protect
        ~finally:(fun () ->
          Stm.Trace.stop ();
          Stm.Obs.unsubscribe sub;
          Stm.Chaos.uninstall ())
        (fun () ->
          let a = Stm.tvar 0 and b = Stm.tvar 10 and c = Stm.tvar 20 in
          for i = 1 to 12 do
            Stm.atomically (fun () ->
                let x = Stm.read a in
                if i mod 3 = 0 then ignore (Stm.read b)
                else begin
                  Stm.write a (x + 1);
                  Stm.write c (Stm.read c + Stm.read b);
                  if i mod 4 = 0 then Stm.write b x
                end)
          done));
  let evs = Stm.Trace.events () in
  let base =
    List.fold_left
      (fun m (e : Tev.t) -> match Tev.tvar e with Some t -> min m t | None -> m)
      max_int evs
  in
  let rebase (e : Tev.t) =
    {
      e with
      args =
        List.map
          (function "tvar", Tev.Int t -> ("tvar", Tev.Int (t - base)) | x -> x)
          e.args;
    }
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "# trace\n";
  List.iter (fun e -> Buffer.add_string buf (Fmt.str "%a\n" Tev.pp (rebase e))) evs;
  Buffer.add_string buf "# tel\n";
  List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) (List.rev !tel);
  let file = Filename.concat "golden" (Fmt.str "seam-%s.txt" name) in
  let ic = open_in_bin file in
  let expected = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) (name ^ ": emission stream matches " ^ file) expected
    (Buffer.contents buf)

let zoo_parallel_counter a () =
  Stm.with_algo a (fun () ->
      let v = Stm.tvar 0 in
      let iters = 1500 in
      spawn_all
        (List.init ndomains (fun _ () ->
             for _ = 1 to iters do
               Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
             done));
      Alcotest.(check int)
        (Stm.Algo.name a ^ ": no lost updates")
        (ndomains * iters) (Stm.read v))

(* The opacity stress of [test_bank_snapshot_consistency], generalized
   over the zoo: workers fire transfers while an observer sums every
   account twice inside one transaction — a torn snapshot shows up as
   the two sums differing or the invariant breaking. *)
let zoo_bank_snapshot a () =
  Stm.with_algo a (fun () ->
      let accounts = 8 and initial = 50 in
      let bank = Tm_stm.Txn_bank.make ~accounts ~initial in
      let expected_total = accounts * initial in
      let workers_done = Atomic.make 0 in
      let violations = Atomic.make 0 in
      let workers =
        List.init (ndomains - 1) (fun d () ->
            let st = ref ((d * 11) + 3) in
            let rand bound =
              st := (!st * 1103515245) + 12345;
              abs !st mod bound
            in
            for _ = 1 to 1200 do
              let x = rand accounts in
              let y = (x + 1 + rand (accounts - 1)) mod accounts in
              ignore
                (Tm_stm.Txn_bank.transfer bank ~from_:x ~to_:y
                   ~amount:(1 + rand 5))
            done;
            Atomic.incr workers_done)
      in
      let observer () =
        while Atomic.get workers_done < ndomains - 1 do
          let s1, s2 =
            Stm.atomically (fun () ->
                let sum () =
                  let acc = ref 0 in
                  for i = 0 to accounts - 1 do
                    acc := !acc + Tm_stm.Txn_bank.balance bank i
                  done;
                  !acc
                in
                let a = sum () in
                let b = sum () in
                (a, b))
          in
          if s1 <> s2 || s1 <> expected_total then Atomic.incr violations
        done
      in
      spawn_all (observer :: workers);
      Alcotest.(check int)
        (Stm.Algo.name a ^ ": no inconsistent snapshot")
        0 (Atomic.get violations);
      Alcotest.(check int)
        (Stm.Algo.name a ^ ": invariant after the storm")
        expected_total
        (Tm_stm.Txn_bank.total bank))

(* Named regression: DSTM abort-others stealing must not livelock.  Two
   domains write the same two t-variables in opposite orders, the
   adversarial pattern where each transaction steals the other's
   ownership and both could abort each other forever.  The facade's
   randomized backoff breaks the symmetry; both workers must finish
   with no lost updates. *)
let test_dstm_steal_livelock () =
  Stm.with_algo Stm.Algo.Dstm (fun () ->
      let a = Stm.tvar 0 and b = Stm.tvar 0 in
      let iters = 1000 in
      spawn_all
        [
          (fun () ->
            for _ = 1 to iters do
              Stm.atomically (fun () ->
                  Stm.write a (Stm.read a + 1);
                  Stm.write b (Stm.read b + 1))
            done);
          (fun () ->
            for _ = 1 to iters do
              Stm.atomically (fun () ->
                  Stm.write b (Stm.read b + 1);
                  Stm.write a (Stm.read a + 1))
            done);
        ];
      Alcotest.(check (pair int int))
        "mutual stealers both complete with no lost updates"
        (2 * iters, 2 * iters)
        (Stm.read a, Stm.read b))

(* Named regression: NOrec value-based validation.  Two traps in one:
   (a) t-variables may hold closures (txn_map nodes carry comparison
   functions), where structural equality raises — validation must use
   physical equality; (b) a flipper swaps two integers back and forth,
   the ABA pattern value-based validation admits by design — admitting
   it must still never show an observer a torn (sum <> invariant)
   snapshot. *)
let test_norec_value_validation_aba () =
  Stm.with_algo Stm.Algo.Norec (fun () ->
      let f0 x = x + 1 and f1 x = x * 2 in
      let fv = Stm.tvar f0 in
      let a = Stm.tvar 0 and b = Stm.tvar 1 in
      (* invariant: a + b = 1 *)
      let stop = Atomic.make false in
      let violations = Atomic.make 0 in
      let flipper () =
        for i = 1 to 4000 do
          Stm.atomically (fun () ->
              let x = Stm.read a in
              Stm.write a (Stm.read b);
              Stm.write b x;
              Stm.write fv (if i land 1 = 0 then f0 else f1))
        done;
        Atomic.set stop true
      in
      let observer () =
        while not (Atomic.get stop) do
          let s =
            Stm.atomically (fun () ->
                let g = Stm.read fv in
                ignore (g 1);
                Stm.read a + Stm.read b)
          in
          if s <> 1 then Atomic.incr violations
        done
      in
      spawn_all [ flipper; observer ];
      Alcotest.(check int) "no torn snapshot under value validation" 0
        (Atomic.get violations);
      Alcotest.(check int) "invariant holds at the end" 1
        (Stm.read a + Stm.read b))

(* ------------------------------------------------------------------ *)
(* Blame seam. *)

(* Named regression: [Stm.recover] must drop every subscriber of the
   seam (chaos plan, observers, blame sink, trace recorder) before
   releasing core-global lock state, and it
   must be idempotent — recover twice, then a clean commit.  A chaos
   handler that crashes every transaction is the sharpest probe: if
   recover left it armed, the commit below would die. *)
let test_recover_resets_seams () =
  let v = Stm.tvar 0 in
  let blame_hits = Atomic.make 0 in
  let obs_hits = Atomic.make 0 in
  Stm.Blame.install
    {
      Stm.Blame.on_event = (fun _ -> Atomic.incr blame_hits);
      on_progress = (fun _ -> Atomic.incr blame_hits);
    };
  ignore (Stm.Obs.subscribe (fun _ _ _ -> Atomic.incr obs_hits));
  Stm.Trace.start_null ();
  Stm.Chaos.install (fun _ -> Stm.Chaos.Crash);
  Stm.recover ();
  Stm.recover ();
  let emitted = Stm.Trace.emitted () in
  Stm.atomically (fun () -> Stm.write v (Stm.read v + 1));
  Alcotest.(check int) "clean commit after double recover" 1 (Stm.read v);
  Alcotest.(check bool) "seam disarmed" false (Stm.Obs.is_armed ());
  Alcotest.(check bool) "blame disarmed" false (Stm.Blame.is_armed ());
  Alcotest.(check bool) "chaos disarmed" false (Stm.Chaos.is_armed ());
  Alcotest.(check bool) "trace stopped" false (Stm.Trace.is_on ());
  Alcotest.(check int) "blame sink silent" 0 (Atomic.get blame_hits);
  Alcotest.(check int) "observer silent" 0 (Atomic.get obs_hits);
  Alcotest.(check int) "trace recorder silent" emitted (Stm.Trace.emitted ())

(* While disarmed, the seam must be inert: no sink calls, no identity
   reads, [self] at its default. *)
let test_blame_disarmed_inert () =
  let v = Stm.tvar 0 in
  Alcotest.(check bool) "starts disarmed" false (Stm.Blame.is_armed ());
  Alcotest.(check int) "self defaults to unknown" (-1) (Stm.Blame.self ());
  let hits = Atomic.make 0 in
  let sink =
    {
      Stm.Blame.on_event = (fun _ -> Atomic.incr hits);
      on_progress = (fun _ -> Atomic.incr hits);
    }
  in
  Stm.Blame.install sink;
  Stm.Blame.uninstall ();
  for _ = 1 to 100 do
    Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
  done;
  Alcotest.(check int) "no events while disarmed" 0 (Atomic.get hits)

(* Armed, single domain, no contention: the only signal is the progress
   watermark, tagged with the slot bound by [set_self]. *)
let test_blame_progress_watermark () =
  let v = Stm.tvar 0 in
  let progresses = Atomic.make 0 and events = Atomic.make 0 in
  let slot_seen = Atomic.make (-2) in
  Stm.Blame.install
    {
      Stm.Blame.on_event = (fun _ -> Atomic.incr events);
      on_progress =
        (fun s ->
          Atomic.set slot_seen s;
          Atomic.incr progresses);
    };
  Stm.Blame.set_self 7;
  for _ = 1 to 50 do
    Stm.atomically (fun () -> Stm.write v (Stm.read v + 1))
  done;
  Stm.Blame.set_self (-1);
  Stm.Blame.uninstall ();
  Alcotest.(check int) "one progress per commit" 50 (Atomic.get progresses);
  Alcotest.(check int) "no conflict events uncontended" 0 (Atomic.get events);
  Alcotest.(check int) "progress carries the bound slot" 7
    (Atomic.get slot_seen)

(* The announcement table is consumed as association keys — telemetry
   label sets, chaos plans, blame classification — so a duplicated
   entry or an order that varied between calls would silently skew
   those consumers.  tmstatic cross-checks the same tables against each
   core's emission sites at the AST level (seam-contract); this pins
   the runtime side of that contract. *)
let test_algo_tables_hygienic =
  QCheck2.Test.make ~count:200
    ~name:"Algo announcement tables are duplicate-free and order-stable"
    ~print:Stm.Algo.name
    QCheck2.Gen.(oneofl Stm.Algo.all)
    (fun a ->
      let l = Stm.Algo.sites a in
      List.length (List.sort_uniq compare l) = List.length l
      && Stm.Algo.sites a = l)

(* ------------------------------------------------------------------ *)
(* The allocation-free hot path: post-commit chaos, words per
   transaction, the per-domain logs. *)

(* Named regression: a chaos [Abort] at [Post_commit] arrives after the
   writes are published.  It must proceed, not re-run the committed
   body — once, or for a handler that aborts there forever. *)
let post_commit_abort a () =
  Stm.with_algo a (fun () ->
      let name = Stm.Algo.name a in
      let run ~always =
        let v = Stm.tvar 0 in
        let fired = Atomic.make 0 in
        Stm.Chaos.install (fun p ->
            match p with
            | Stm.Obs.Post_commit ->
                if Atomic.fetch_and_add fired 1 = 0 || always then
                  Stm.Chaos.Abort
                else Stm.Chaos.Proceed
            | _ -> Stm.Chaos.Proceed);
        Fun.protect ~finally:Stm.Chaos.uninstall (fun () ->
            Stm.atomically (fun () -> Stm.write v (Stm.read v + 1)));
        Alcotest.(check int) (name ^ ": post-commit point reached once") 1
          (Atomic.get fired);
        Alcotest.(check int) (name ^ ": one increment applied once") 1
          (Stm.read v)
      in
      run ~always:false;
      run ~always:true)

(* Minor-heap words one transaction allocates on one domain, after
   warm-up has grown the per-domain logs.  Deterministic, so a hard
   gate. *)
let words_per_txn f =
  for _ = 1 to 1_000 do
    f ()
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. w0) /. float_of_int n

(* The three transaction shapes, through [atomically] (the
   compatibility path) and through [atomically_tx] (the descriptor). *)
let txn_shapes () =
  let tv = Array.init 4 (fun i -> Stm.tvar i) in
  let empty_body () = () in
  let read4 () =
    Stm.read tv.(0) + Stm.read tv.(1) + Stm.read tv.(2) + Stm.read tv.(3)
  in
  let rw4 () =
    for i = 0 to 3 do
      Stm.write tv.(i) (Stm.read tv.(i) + 1)
    done
  in
  let empty_tx _ = () in
  let read4_tx tx =
    Stm.Tx.read tx tv.(0) + Stm.Tx.read tx tv.(1) + Stm.Tx.read tx tv.(2)
    + Stm.Tx.read tx tv.(3)
  in
  let rw4_tx tx =
    for i = 0 to 3 do
      Stm.Tx.write tx tv.(i) (Stm.Tx.read tx tv.(i) + 1)
    done
  in
  [
    ( "atomically",
      (fun () -> Stm.atomically empty_body),
      (fun () -> ignore (Stm.atomically read4)),
      fun () -> Stm.atomically rw4 );
    ( "atomically_tx",
      (fun () -> Stm.atomically_tx empty_tx),
      (fun () -> ignore (Stm.atomically_tx read4_tx)),
      fun () -> Stm.atomically_tx rw4_tx );
  ]

let check_words label bound w =
  if w > bound then
    Alcotest.failf "%s: %.1f words per transaction, bound %.0f" label w bound

(* One-domain words per transaction, through both entry points.  An
   attempt allocates nothing of the facade's: tl2 pays only the four
   injected values of read+write (3 words each).  The serialized cores
   pay the same; DSTM adds its per-attempt status cell (2 words) and a
   fresh locator per t-variable written (5 words). *)
let test_words_gate () =
  Stm.with_algo Stm.Algo.Tl2 (fun () ->
      List.iter
        (fun (path, empty, read4, rw4) ->
          check_words ("tl2 empty, " ^ path) 0. (words_per_txn empty);
          check_words ("tl2 read-only, 4 reads, " ^ path) 0.
            (words_per_txn read4);
          check_words ("tl2 read+write, 4 tvars, " ^ path) 12.
            (words_per_txn rw4))
        (txn_shapes ()));
  List.iter
    (fun (a, bound) ->
      Stm.with_algo a (fun () ->
          List.iter
            (fun (path, _, _, rw4) ->
              check_words
                (Fmt.str "%s read+write, 4 tvars, %s" (Stm.Algo.name a) path)
                bound (words_per_txn rw4))
            (txn_shapes ())))
    [ (Stm.Algo.Global_lock, 12.); (Stm.Algo.Norec, 24.); (Stm.Algo.Dstm, 34.) ]

(* ------------------------------------------------------------------ *)
(* The explicit descriptor: misuse is rejected, nesting is flat across
   both entry points, and a crash or [recover] leaves it idle. *)

(* A descriptor that escaped its body is rejected like [Stm.write]
   outside a transaction, and its last attempt committed normally. *)
let test_tx_escaped () =
  let v = Stm.tvar 0 in
  let escaped =
    Stm.atomically_tx (fun tx ->
        Stm.Tx.write tx v 1;
        tx)
  in
  Alcotest.check_raises "read through an escaped descriptor"
    (Invalid_argument "Stm.Tx.read outside a transaction") (fun () ->
      ignore (Stm.Tx.read escaped v));
  Alcotest.check_raises "write through an escaped descriptor"
    (Invalid_argument "Stm.Tx.write outside a transaction") (fun () ->
      Stm.Tx.write escaped v 2);
  Alcotest.check_raises "the current descriptor outside a transaction"
    (Invalid_argument "Stm.Tx.read outside a transaction") (fun () ->
      ignore (Stm.Tx.read (Stm.Tx.current ()) v));
  Alcotest.(check int) "the escaping attempt committed" 1 (Stm.read v)

(* Another domain handed the descriptor of a running attempt is
   rejected on read and on write; the owner's attempt is undisturbed. *)
let test_tx_foreign_domain () =
  let v = Stm.tvar 0 in
  let from_peer tx =
    let try_ f =
      match f () with () -> "accepted" | exception Invalid_argument m -> m
    in
    (* tmstatic: allow txn-purity *)
    Domain.join
      (Domain.spawn (fun () ->
           ( try_ (fun () -> ignore (Stm.Tx.read tx v)),
             try_ (fun () -> Stm.Tx.write tx v 99) )))
  in
  let r, w =
    Stm.atomically_tx (fun tx ->
        Stm.Tx.write tx v 1;
        from_peer tx)
  in
  let foreign op = op ^ ": the descriptor belongs to another domain" in
  Alcotest.(check string) "foreign read" (foreign "Stm.Tx.read") r;
  Alcotest.(check string) "foreign write" (foreign "Stm.Tx.write") w;
  Alcotest.(check int) "owner's write committed alone" 1 (Stm.read v);
  let r, _ = from_peer (Stm.Tx.current ()) in
  Alcotest.(check string) "idle descriptor from a peer"
    "Stm.Tx.read outside a transaction" r

(* [atomically_tx] inside [atomically] and the reverse join the
   enclosing transaction: one commit, the inner writes visible to the
   outer body, under every core. *)
let test_tx_nesting () =
  List.iter
    (fun a ->
      Stm.with_algo a (fun () ->
          let name = Stm.Algo.name a in
          let v = Stm.tvar 0 in
          let c0, _ = Stm.stats () in
          Stm.atomically (fun () ->
              Stm.write v 1;
              Stm.atomically_tx (fun tx ->
                  Stm.Tx.write tx v (Stm.Tx.read tx v + 1));
              Alcotest.(check int) (name ^ ": inner write seen") 2
                (Stm.read v));
          Stm.atomically_tx (fun tx ->
              Stm.Tx.write tx v (Stm.Tx.read tx v + 10);
              Stm.atomically (fun () -> Stm.write v (Stm.read v + 100));
              Alcotest.(check int) (name ^ ": inner write seen through tx") 112
                (Stm.Tx.read tx v));
          let c1, _ = Stm.stats () in
          Alcotest.(check int) (name ^ ": committed") 112 (Stm.read v);
          Alcotest.(check int) (name ^ ": one commit per outer transaction") 2
            (c1 - c0);
          Alcotest.(check bool) (name ^ ": idle after") false
            (Stm.in_transaction ())))
    Stm.Algo.all

(* A crash in the body ([Read]) or in commit ([Pre_commit], holding
   the core's locks) leaves the domain's descriptor idle, and so does
   [recover]; the next transaction on a fresh t-variable commits. *)
let test_tx_crash_idle () =
  List.iter
    (fun (a, point) ->
      Stm.with_algo a (fun () ->
          let label =
            Fmt.str "%s, crash at %s" (Stm.Algo.name a)
              (Stm.Obs.site_label point)
          in
          let v = Stm.tvar 0 in
          Stm.Chaos.install (fun p ->
              if p = point then Stm.Chaos.Crash else Stm.Chaos.Proceed);
          let crashed =
            Fun.protect ~finally:Stm.Chaos.uninstall (fun () ->
                match
                  Stm.atomically_tx (fun tx ->
                      Stm.Tx.write tx v (Stm.Tx.read tx v + 1))
                with
                | () -> false
                | exception Stm.Chaos.Crashed -> true)
          in
          Alcotest.(check bool) (label ^ ": crashed") true crashed;
          Alcotest.(check bool) (label ^ ": idle after the crash") false
            (Stm.in_transaction ());
          Alcotest.check_raises (label ^ ": descriptor rejects reads")
            (Invalid_argument "Stm.Tx.read outside a transaction") (fun () ->
              ignore (Stm.Tx.read (Stm.Tx.current ()) v));
          Stm.recover ();
          Alcotest.(check bool) (label ^ ": idle after recover") false
            (Stm.in_transaction ());
          let w = Stm.tvar 0 in
          Stm.atomically_tx (fun tx -> Stm.Tx.write tx w 7);
          Alcotest.(check int) (label ^ ": next transaction commits") 7
            (Stm.read w)))
    (List.concat_map
       (fun a -> [ (a, Stm.Obs.Read); (a, Stm.Obs.Pre_commit) ])
       Stm.Algo.all)

(* An observer that fails inside commit ends the attempt: the exception
   escapes [atomically_tx] and the descriptor is idle again.  NOrec's
   [Validate] site fires before the sequence lock is taken, so the
   failure strands nothing. *)
let test_tx_commit_failure_idle () =
  Stm.with_algo Stm.Algo.Norec (fun () ->
      let v = Stm.tvar 0 in
      let s =
        Stm.Obs.subscribe ~sites:[ Stm.Obs.Validate ] (fun _ _ _ -> raise Exit)
      in
      let raised =
        Fun.protect
          ~finally:(fun () -> Stm.Obs.unsubscribe s)
          (fun () ->
            match Stm.atomically_tx (fun tx -> Stm.Tx.write tx v 1) with
            | () -> false
            | exception Exit -> true)
      in
      Alcotest.(check bool) "the observer's exception escapes" true raised;
      Alcotest.(check bool) "idle after" false (Stm.in_transaction ());
      Alcotest.(check int) "nothing committed" 0 (Stm.read v);
      Stm.atomically_tx (fun tx -> Stm.Tx.write tx v 2);
      Alcotest.(check int) "next transaction commits" 2 (Stm.read v))

(* Differential test of the write-back cores' logs against a sequential
   array.  A program is a list of transactions over [n] t-variables
   (1..200: past the initial log capacity and the filter width); each
   transaction is a list of reads and writes with repeated writes,
   read-own-write after an overwrite, and pairs of t-variables whose
   consecutive ids lie [filter_width] apart, i.e. collide in the filter.
   A transaction either commits, raises (nothing survives), or first
   runs once with junk values and ends in [Retry] or [Conflict] — the
   re-run on the same per-domain log must see none of the junk. *)
type log_op = R of int | W of int * int

type ending = Commit | Raise | Retry_first | Conflict_first

let filter_width = Tm_stm.Stm_core.Wlog.filter_width

let gen_program =
  let open QCheck2.Gen in
  let* n = int_range 1 200 in
  let idx = int_bound (n - 1) in
  let op =
    frequency
      [
        (3, map (fun i -> [ R i ]) idx);
        (3, map2 (fun i v -> [ W (i, v) ]) idx (int_bound 99));
        ( 2,
          map3
            (fun i v v' -> [ W (i, v); W (i, v'); R i; W (i, v + v'); R i ])
            idx (int_bound 99) (int_bound 99) );
        ( 2,
          map2
            (fun i v ->
              let j = (i + filter_width) mod n in
              [ W (i, v); R j; W (j, v + 1); R i; R j ])
            idx (int_bound 99) );
      ]
  in
  let txn =
    pair
      (frequencyl
         [ (4, Commit); (1, Raise); (1, Retry_first); (1, Conflict_first) ])
      (map List.concat (list_size (int_range 0 12) op))
  in
  pair (return n) (list_size (int_range 1 15) txn)

let print_program (n, txns) =
  Fmt.str "%d tvars, %d transactions: %s" n (List.length txns)
    (String.concat " | "
       (List.map
          (fun (e, ops) ->
            Fmt.str "%s[%s]"
              (match e with
              | Commit -> "commit"
              | Raise -> "raise"
              | Retry_first -> "retry"
              | Conflict_first -> "conflict")
              (String.concat ";"
                 (List.map
                    (function
                      | R i -> Fmt.str "r%d" i | W (i, v) -> Fmt.str "w%d=%d" i v)
                    ops)))
          txns))

let logs_match_model a =
  QCheck2.Test.make ~count:150
    ~name:(Stm.Algo.name a ^ ": logs agree with a sequential array")
    ~print:print_program gen_program (fun (n, txns) ->
      Stm.with_algo a (fun () ->
          let tvars = Array.init n (fun _ -> Stm.tvar 0) in
          let model = Array.make n 0 in
          let run_ops local ops ~junk =
            List.iter
              (function
                | R i ->
                    let got = Stm.read tvars.(i) in
                    if got <> local.(i) then
                      failwith
                        (Fmt.str "read t%d: got %d, expected %d" i got
                           local.(i))
                | W (i, v) ->
                    let v = v + junk in
                    Stm.write tvars.(i) v;
                    local.(i) <- v)
              ops
          in
          List.iter
            (fun (ending, ops) ->
              let attempts = ref 0 in
              let body () =
                incr attempts;
                let local = Array.copy model in
                match ending with
                | (Retry_first | Conflict_first) when !attempts = 1 ->
                    run_ops local ops ~junk:1000;
                    if ending = Retry_first then Stm.retry ()
                    else raise Tm_stm.Stm_core.Conflict
                | Raise ->
                    run_ops local ops ~junk:0;
                    raise Exit
                | _ ->
                    run_ops local ops ~junk:0;
                    local
              in
              match Stm.atomically body with
              | local -> Array.blit local 0 model 0 n
              | exception Exit -> ())
            txns;
          Array.for_all2 (fun tv m -> Stm.read tv = m) tvars model))

(* A value a transaction wrote, read or buffered must be collectable
   once the transaction has ended and nothing else refers to it: the
   per-domain logs reuse their slots but must not pin the values they
   held. *)
let test_logs_release_values a () =
  Stm.with_algo a (fun () ->
      let name = Stm.Algo.name a in
      let collected = Atomic.make 0 in
      let big () =
        let b = Array.make 10_000 0 in
        Gc.finalise (fun _ -> Atomic.incr collected) b;
        b
      in
      let tv = Stm.tvar [||] in
      (* committed, then read by a later transaction, then overwritten *)
      Stm.atomically (fun () -> Stm.write tv (big ()));
      ignore (Stm.atomically (fun () -> Array.length (Stm.read tv)));
      Stm.atomically (fun () -> Stm.write tv [||]);
      (* buffered by an aborted attempt *)
      (try
         Stm.atomically (fun () ->
             Stm.write tv (big ());
             raise Exit)
       with Exit -> ());
      Gc.full_major ();
      Gc.full_major ();
      Alcotest.(check int) (name ^ ": both large values collected") 2
        (Atomic.get collected))

let () =
  Alcotest.run "tm_stm"
    [
      ( "semantics",
        [
          Alcotest.test_case "read/write" `Quick test_basic_read_write;
          Alcotest.test_case "rollback on exception" `Quick
            test_rollback_on_exception;
          Alcotest.test_case "write outside rejected" `Quick
            test_write_outside_rejected;
          Alcotest.test_case "snapshot read outside" `Quick
            test_snapshot_read_outside;
          Alcotest.test_case "nesting flattens" `Quick test_nesting_flattens;
          Alcotest.test_case "two tvars" `Quick test_two_tvars_consistent;
          Alcotest.test_case "polymorphic tvars" `Quick test_polymorphic_tvars;
          Alcotest.test_case "stats" `Quick test_stats_move;
          QCheck_alcotest.to_alcotest test_stm_model;
        ] );
      ( "data structures",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          QCheck_alcotest.to_alcotest test_list_model;
          Alcotest.test_case "queue fifo" `Quick test_queue_fifo;
          Alcotest.test_case "stack" `Quick test_stack;
          QCheck_alcotest.to_alcotest test_map_model;
          Alcotest.test_case "map sequential" `Quick test_map_sequential;
          Alcotest.test_case "hashtbl" `Quick test_hashtbl;
        ] );
      ( "global-lock runtime",
        [
          Alcotest.test_case "basics" `Quick test_lock_stm_basic;
          Alcotest.test_case "every transaction commits" `Quick
            test_lock_stm_every_txn_commits;
          Alcotest.test_case "parallel counter" `Slow
            test_lock_stm_parallel_counter;
        ] );
      ( "algorithm zoo",
        [
          Alcotest.test_case "semantics, every core" `Quick test_zoo_semantics;
          Alcotest.test_case "tl2 sites truthful" `Slow
            (sites_truthful Stm.Algo.Tl2);
          Alcotest.test_case "global-lock sites truthful" `Slow
            (sites_truthful Stm.Algo.Global_lock);
          Alcotest.test_case "dstm sites truthful" `Slow
            (sites_truthful Stm.Algo.Dstm);
          Alcotest.test_case "norec sites truthful" `Slow
            (sites_truthful Stm.Algo.Norec);
          Alcotest.test_case "tl2 golden emission stream" `Quick
            (seam_golden Stm.Algo.Tl2);
          Alcotest.test_case "global-lock golden emission stream" `Quick
            (seam_golden Stm.Algo.Global_lock);
          Alcotest.test_case "dstm golden emission stream" `Quick
            (seam_golden Stm.Algo.Dstm);
          Alcotest.test_case "norec golden emission stream" `Quick
            (seam_golden Stm.Algo.Norec);
          QCheck_alcotest.to_alcotest test_algo_tables_hygienic;
          Alcotest.test_case "global-lock parallel counter" `Slow
            (zoo_parallel_counter Stm.Algo.Global_lock);
          Alcotest.test_case "dstm parallel counter" `Slow
            (zoo_parallel_counter Stm.Algo.Dstm);
          Alcotest.test_case "norec parallel counter" `Slow
            (zoo_parallel_counter Stm.Algo.Norec);
          Alcotest.test_case "global-lock bank snapshot" `Slow
            (zoo_bank_snapshot Stm.Algo.Global_lock);
          Alcotest.test_case "dstm bank snapshot" `Slow
            (zoo_bank_snapshot Stm.Algo.Dstm);
          Alcotest.test_case "norec bank snapshot" `Slow
            (zoo_bank_snapshot Stm.Algo.Norec);
          Alcotest.test_case "dstm abort-stealing livelock" `Slow
            test_dstm_steal_livelock;
          Alcotest.test_case "norec value-validation ABA" `Slow
            test_norec_value_validation_aba;
        ] );
      ( "blame seam",
        [
          Alcotest.test_case "recover resets every seam" `Quick
            test_recover_resets_seams;
          Alcotest.test_case "disarmed seam inert" `Quick
            test_blame_disarmed_inert;
          Alcotest.test_case "progress watermark" `Quick
            test_blame_progress_watermark;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "words per transaction gate" `Quick
            test_words_gate;

          Alcotest.test_case "tl2 post-commit abort proceeds" `Quick
            (post_commit_abort Stm.Algo.Tl2);
          Alcotest.test_case "global-lock post-commit abort proceeds" `Quick
            (post_commit_abort Stm.Algo.Global_lock);
          Alcotest.test_case "dstm post-commit abort proceeds" `Quick
            (post_commit_abort Stm.Algo.Dstm);
          Alcotest.test_case "norec post-commit abort proceeds" `Quick
            (post_commit_abort Stm.Algo.Norec);
          QCheck_alcotest.to_alcotest (logs_match_model Stm.Algo.Tl2);
          QCheck_alcotest.to_alcotest (logs_match_model Stm.Algo.Global_lock);
          QCheck_alcotest.to_alcotest (logs_match_model Stm.Algo.Norec);
          Alcotest.test_case "tl2 logs release values" `Quick
            (test_logs_release_values Stm.Algo.Tl2);
          Alcotest.test_case "global-lock logs release values" `Quick
            (test_logs_release_values Stm.Algo.Global_lock);
          Alcotest.test_case "norec logs release values" `Quick
            (test_logs_release_values Stm.Algo.Norec);
        ] );
      ( "descriptor",
        [
          Alcotest.test_case "escaped descriptor rejected" `Quick
            test_tx_escaped;
          Alcotest.test_case "foreign descriptor rejected" `Quick
            test_tx_foreign_domain;
          Alcotest.test_case "nesting is flat both ways" `Quick
            test_tx_nesting;
          Alcotest.test_case "crash and recover leave it idle" `Quick
            test_tx_crash_idle;
          Alcotest.test_case "observer failure in commit leaves it idle" `Quick
            test_tx_commit_failure_idle;
        ] );
      ( "multicore stress",
        [
          Alcotest.test_case "parallel counter" `Slow test_parallel_counter;
          Alcotest.test_case "parallel bank" `Slow test_parallel_bank;
          Alcotest.test_case "bank snapshot consistency" `Slow
            test_bank_snapshot_consistency;
          Alcotest.test_case "parallel list" `Slow test_parallel_list;
          Alcotest.test_case "parallel queue" `Slow test_parallel_queue;
          Alcotest.test_case "parallel map" `Slow test_parallel_map;
          Alcotest.test_case "parallel stack" `Slow test_parallel_stack;
          Alcotest.test_case "parallel hashtbl" `Slow test_parallel_hashtbl;
        ] );
    ]
