(* Tests for the tmstatic analyzer (lib/staticcheck): per-rule fixture
   pairs (one clean, one violating file each), the machine-read seam
   contract, the allow escape hatch, rule selection, exit-code
   thresholds, and the two whole-tree gates the CI job leans on —
   zero error findings on a clean checkout and byte-identical JSON
   across runs. *)

module F = Tm_analysis.Finding
module Engine = Tm_analysis.Engine
module Sc = Tm_staticcheck.Checker
module Source = Tm_staticcheck.Source
module Seam = Tm_staticcheck.Seam

(* The fixture tree sits next to this file; resolve it both from the
   stanza's cwd (dune runtest: _build/default/test) and from the repo
   root (dune exec). *)
let fixture_dir =
  lazy
    (match
       List.find_opt Sys.file_exists
         [ "fixtures/static"; Filename.concat "test" "fixtures/static" ]
     with
    | Some d -> d
    | None -> Alcotest.fail "cannot locate test/fixtures/static")

let fixture name =
  let path = Filename.concat (Lazy.force fixture_dir) name in
  match Source.load ~subject:name path with
  | Ok src -> src
  | Error msg -> Alcotest.failf "fixture %s: %s" name msg

let count sev findings =
  List.length (List.filter (fun (f : F.t) -> f.F.severity = sev) findings)

let lines_of findings =
  List.filter_map
    (fun (f : F.t) ->
      match f.F.location with F.At_line l -> Some l | _ -> None)
    findings
  |> List.sort_uniq compare

let check_counts what ~errors ~warnings findings =
  Alcotest.(check int) (what ^ ": errors") errors (count F.Error findings);
  Alcotest.(check int)
    (what ^ ": warnings")
    warnings
    (count F.Warning findings)

(* --- the seam contract, parsed from miniature fixture sources --- *)

let mini_contract () =
  let vocab_src = fixture "contract_vocab.ml" in
  let facade_src = fixture "contract_facade.ml" in
  match
    (Seam.vocab_of_core vocab_src, Seam.contract_of_facade facade_src)
  with
  | Ok vocab, Ok contract -> (vocab, contract, facade_src)
  | Error msg, _ | _, Error msg -> Alcotest.failf "mini contract: %s" msg

let test_contract_parses () =
  let vocab, contract, _ = mini_contract () in
  Alcotest.(check (list string))
    "site vocabulary"
    [
      "Begin"; "Read"; "Lock_acquire"; "Validate"; "Validation"; "Published";
      "Commit"; "Abort";
    ]
    vocab;
  Alcotest.(check (list string)) "algos" [ "Mini" ] contract.Seam.c_algos;
  Alcotest.(check (list (pair string string)))
    "core dispatch"
    [ ("Mini", "Stm_mini") ]
    contract.Seam.c_core_files;
  match Seam.announced contract ~algo:"Mini" with
  | None -> Alcotest.fail "no Algo.sites announcement for Mini"
  | Some an ->
      Alcotest.(check (list string))
        "announced sites"
        [ "Begin"; "Read"; "Validation"; "Published"; "Commit"; "Abort" ]
        an.Seam.an_sites

let contract_check core =
  let vocab, contract, facade_src = mini_contract () in
  Tm_staticcheck.Rule_contract.check ~vocab ~contract
    ~substrate:(fixture "contract_vocab.ml") ~facade_src
    [ ("Mini", fixture core) ]

let test_contract_clean () =
  check_counts "clean core" ~errors:0 ~warnings:0
    (contract_check "contract_core_clean.ml")

let test_contract_bad () =
  let findings = contract_check "contract_core_bad.ml" in
  (* One unannounced site (Validate) and three announced sites nothing
     reaches (Read, Validation, and Published — the core never calls
     write_back); the facade's retry loop covers Begin/Commit/Abort. *)
  check_counts "bad core" ~errors:4 ~warnings:0 findings;
  let unannounced =
    List.filter
      (fun (f : F.t) -> f.F.subject = "contract_core_bad.ml")
      findings
  in
  Alcotest.(check int) "unannounced sited in core" 1 (List.length unannounced);
  Alcotest.(check (list int)) "at the emission line" [ 7 ]
    (lines_of unannounced)

(* --- seam-guard --- *)

let test_guard_clean () =
  check_counts "guard_clean" ~errors:0 ~warnings:0
    (Tm_staticcheck.Rule_guard.check (fixture "guard_clean.ml"))

let test_guard_bad () =
  let findings = Tm_staticcheck.Rule_guard.check (fixture "guard_bad.ml") in
  (* Obs.fire, Obs.emit, Obs.now unguarded and Obs.decide behind a test
     of a word that is not the armed word — the allow-commented
     dispatch is suppressed. *)
  check_counts "guard_bad" ~errors:4 ~warnings:0 findings;
  Alcotest.(check (list int)) "at each dispatch" [ 4; 6; 8; 10 ]
    (lines_of findings)

(* --- txn-purity --- *)

let test_purity_clean () =
  check_counts "purity_clean" ~errors:0 ~warnings:0
    (Tm_staticcheck.Rule_purity.check (fixture "purity_clean.ml"))

let test_purity_bad () =
  let findings = Tm_staticcheck.Rule_purity.check (fixture "purity_bad.ml") in
  (* Errors: print_endline, Random.int, Domain.spawn, Mutex.lock.
     Warnings: incr / Hashtbl.replace on state created outside. *)
  check_counts "purity_bad" ~errors:4 ~warnings:2 findings

(* --- armed-leak --- *)

let test_leak_clean () =
  check_counts "leak_clean" ~errors:0 ~warnings:0
    (Tm_staticcheck.Rule_leak.check (fixture "leak_clean.ml"))

let test_leak_bad () =
  let findings = Tm_staticcheck.Rule_leak.check (fixture "leak_bad.ml") in
  (* A Chaos.install with no release and an Obs.subscribe whose
     definition releases only the trace recorder; the allow-commented
     Stm_probe.install is suppressed. *)
  check_counts "leak_bad" ~errors:2 ~warnings:0 findings;
  Alcotest.(check (list int)) "at each subscription" [ 5; 9 ] (lines_of findings)

(* --- rule selection and exit thresholds --- *)

let test_parse_selection () =
  (match Sc.parse_selection "all" with
  | Ok ids -> Alcotest.(check (list string)) "all" Sc.rule_ids ids
  | Error msg -> Alcotest.fail msg);
  (match Sc.parse_selection "seam-guard, txn-purity" with
  | Ok ids ->
      Alcotest.(check (list string))
        "subset"
        [ "seam-guard"; "txn-purity" ]
        ids
  | Error msg -> Alcotest.fail msg);
  match Sc.parse_selection "bogus" with
  | Ok _ -> Alcotest.fail "bogus accepted"
  | Error msg ->
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
        at 0
      in
      Alcotest.(check bool)
        "names the unknown rule" true
        (contains msg "bogus" && contains msg "seam-guard")

let test_exit_code_at () =
  let f sev = F.v ~rule:"r" ~severity:sev ~subject:"s" "m" in
  let warn = [ f F.Warning ] and err = [ f F.Error; f F.Warning ] in
  Alcotest.(check int) "error level, warnings only" 0
    (Engine.exit_code_at `Error warn);
  Alcotest.(check int) "error level, error present" 1
    (Engine.exit_code_at `Error err);
  Alcotest.(check int) "warning level, warnings only" 1
    (Engine.exit_code_at `Warning warn);
  Alcotest.(check int) "never" 0 (Engine.exit_code_at `Never err);
  Alcotest.(check int) "empty" 0 (Engine.exit_code_at `Warning [])

(* --- the whole-tree gates --- *)

let repo_root () =
  match Sc.find_root () with
  | Some root -> root
  | None -> Alcotest.fail "cannot find the repo root from the test cwd"

let test_tree_is_clean () =
  let root = repo_root () in
  match Sc.run ~root () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      List.iter (fun f -> Fmt.epr "unexpected: %a@." F.pp f) report.Sc.findings;
      Alcotest.(check int) "no findings on a clean tree" 0
        (List.length report.Sc.findings);
      Alcotest.(check bool)
        (Fmt.str "scanned a real tree (%d files)" report.Sc.files_scanned)
        true
        (report.Sc.files_scanned >= 10)

let test_tree_json_deterministic () =
  let root = repo_root () in
  let once () =
    match Sc.run ~root () with
    | Error msg -> Alcotest.fail msg
    | Ok report -> F.list_to_json report.Sc.findings
  in
  let a = once () and b = once () in
  Alcotest.(check string) "byte-identical JSON across runs" a b;
  Alcotest.(check string) "clean-tree document"
    "{\"findings\":[],\"counts\":{\"error\":0,\"warning\":0,\"info\":0}}\n" a

let test_rule_filter () =
  let root = repo_root () in
  match Sc.run ~rules:[ "armed-leak" ] ~root () with
  | Error msg -> Alcotest.fail msg
  | Ok report ->
      Alcotest.(check int) "leak rule alone is clean" 0
        (List.length report.Sc.findings)

(* --- seeded falsifications: each rule must catch its seeded defect
   in a copy of the real sources --- *)

let read_file f = In_channel.with_open_bin f In_channel.input_all

let write_file f s =
  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

let rec occurrences s pat i =
  match String.index_from_opt s i pat.[0] with
  | None -> 0
  | Some j ->
      if j + String.length pat <= String.length s && String.sub s j (String.length pat) = pat
      then 1 + occurrences s pat (j + String.length pat)
      else occurrences s pat (j + 1)

let replace_once s pat by =
  let rec find i =
    if String.sub s i (String.length pat) = pat then i else find (i + 1)
  in
  let j = find 0 in
  String.sub s 0 j ^ by ^ String.sub s (j + String.length pat) (String.length s - j - String.length pat)

(* A scratch tree holding copies of lib/stm and test/test_stm.ml. *)
let with_copy f =
  let root = repo_root () in
  let dir = Filename.temp_dir "tmstatic" "" in
  let mk rel = Sys.mkdir (Filename.concat dir rel) 0o755 in
  List.iter mk [ "lib"; "lib/stm"; "test" ];
  let copied =
    List.map (fun f -> Filename.concat "lib/stm" f)
      (List.filter
         (fun f -> Filename.check_suffix f ".ml")
         (Array.to_list (Sys.readdir (Filename.concat root "lib/stm"))))
    @ [ "test/test_stm.ml" ]
  in
  List.iter
    (fun rel ->
      write_file (Filename.concat dir rel) (read_file (Filename.concat root rel)))
    copied;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun rel -> Sys.remove (Filename.concat dir rel)) copied;
      List.iter
        (fun rel -> Sys.rmdir (Filename.concat dir rel))
        [ "test"; "lib/stm"; "lib"; "" ])
    (fun () -> f dir)

let seeded ~rule ~file ~pat ~by ~subject ~message () =
  with_copy (fun dir ->
      let path = Filename.concat dir file in
      let src = read_file path in
      Alcotest.(check int) (Fmt.str "pattern matches %s once" file) 1
        (occurrences src pat 0);
      write_file path (replace_once src pat by);
      match Sc.run ~rules:[ rule ] ~root:dir () with
      | Error msg -> Alcotest.fail msg
      | Ok report ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
            at 0
          in
          Alcotest.(check bool)
            (Fmt.str "%s fires on %s" rule subject)
            true
            (List.exists
               (fun (f : F.t) ->
                 f.F.rule = rule && f.F.subject = subject
                 && contains f.F.message message)
               report.Sc.findings))

let seeded_guard =
  seeded ~rule:"seam-guard" ~file:"lib/stm/stm_dstm.ml"
    ~pat:"if m land Obs.reads <> 0 then Obs.fire m Obs.Read tv.id;"
    ~by:"Obs.fire m Obs.Read tv.id;" ~subject:"lib/stm/stm_dstm.ml"
    ~message:""

(* Drop Lock_busy from tl2's announcement: the core's site becomes
   unannounced. *)
let seeded_unannounced =
  seeded ~rule:"seam-contract" ~file:"lib/stm/stm.ml"
    ~pat:"Obs.Locked; Obs.Lock_busy; Obs.Released;"
    ~by:"Obs.Locked; Obs.Released;" ~subject:"lib/stm/stm_tl2.ml"
    ~message:"Lock_busy"

(* Announce Stolen for the global-lock core, which never steals. *)
let seeded_unemitted =
  seeded ~rule:"seam-contract" ~file:"lib/stm/stm.ml"
    ~pat:"Obs.Begin; Obs.Read; Obs.Lock_acquire; Obs.Locked; Obs.Lock_time;"
    ~by:"Obs.Begin; Obs.Read; Obs.Lock_acquire; Obs.Locked; Obs.Lock_time; Obs.Stolen;"
    ~subject:"lib/stm/stm.ml" ~message:"no emission site"

let seeded_purity =
  seeded ~rule:"txn-purity" ~file:"lib/stm/txn_counter.ml"
    ~pat:"Stm.atomically (fun () -> Stm.write t (Stm.read t + k))"
    ~by:"Stm.atomically (fun () -> print_endline \"x\"; Stm.write t (Stm.read t + k))"
    ~subject:"lib/stm/txn_counter.ml" ~message:""

(* A test definition that installs a chaos plan and never releases it,
   appended to a copy of test_stm.ml (no pattern to match). *)
let seeded_leak () =
  with_copy (fun dir ->
      let path = Filename.concat dir "test/test_stm.ml" in
      write_file path
        (read_file path
        ^ "\nlet _seeded_leak () = Stm.Chaos.install (fun _ -> Stm.Chaos.Proceed)\n");
      match Sc.run ~rules:[ "armed-leak" ] ~root:dir () with
      | Error msg -> Alcotest.fail msg
      | Ok report ->
          Alcotest.(check bool) "armed-leak fires on test/test_stm.ml" true
            (List.exists
               (fun (f : F.t) ->
                 f.F.rule = "armed-leak" && f.F.subject = "test/test_stm.ml")
               report.Sc.findings))

let () =
  Alcotest.run "tm_staticcheck"
    [
      ( "seam-contract",
        [
          Alcotest.test_case "contract parses" `Quick test_contract_parses;
          Alcotest.test_case "clean core" `Quick test_contract_clean;
          Alcotest.test_case "violating core" `Quick test_contract_bad;
        ] );
      ( "seam-guard",
        [
          Alcotest.test_case "clean" `Quick test_guard_clean;
          Alcotest.test_case "violating" `Quick test_guard_bad;
        ] );
      ( "txn-purity",
        [
          Alcotest.test_case "clean" `Quick test_purity_clean;
          Alcotest.test_case "violating" `Quick test_purity_bad;
        ] );
      ( "armed-leak",
        [
          Alcotest.test_case "clean" `Quick test_leak_clean;
          Alcotest.test_case "violating" `Quick test_leak_bad;
        ] );
      ( "seeded",
        [
          Alcotest.test_case "unguarded dispatch (seam-guard)" `Quick seeded_guard;
          Alcotest.test_case "unannounced site (seam-contract)" `Quick
            seeded_unannounced;
          Alcotest.test_case "unemitted announcement (seam-contract)" `Quick
            seeded_unemitted;
          Alcotest.test_case "transaction I/O (txn-purity)" `Quick seeded_purity;
          Alcotest.test_case "armed leak (armed-leak)" `Quick seeded_leak;
        ] );
      ( "driver",
        [
          Alcotest.test_case "rule selection" `Quick test_parse_selection;
          Alcotest.test_case "exit thresholds" `Quick test_exit_code_at;
          Alcotest.test_case "tree is clean" `Quick test_tree_is_clean;
          Alcotest.test_case "JSON determinism" `Quick
            test_tree_json_deterministic;
          Alcotest.test_case "rule filter" `Quick test_rule_filter;
        ] );
    ]
