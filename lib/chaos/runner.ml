module Stm = Tm_stm.Stm
module Pc = Tm_liveness.Process_class
module Emp = Tm_liveness.Empirical
module Tev = Tm_trace.Trace_event
module Tel = Tm_telemetry

type sample = { ops : int; trycs : int; commits : int; aborts : int }

(* Per-domain monotone counters live in a telemetry registry
   ([tm_chaos_*_total{domain=...}], single-writer so one shard each):
   the watchdog, the liveness gauge and any --telemetry export all read
   the same instruments instead of ad-hoc cells.  Aborts are derived:
   every transaction body start is an attempt, every [atomically] return
   a commit, and each attempt either commits or aborts. *)
type session = {
  ses_plan : Plan.t;
  ses_registry : Tel.Registry.t;
  ses_liveness : Tel.Liveness_gauge.t;
  ses_blame : Tel.Blame_graph.t option;
  ses_ops : Tel.Instrument.counter array;
  ses_attempts : Tel.Instrument.counter array;
  ses_trycs : Tel.Instrument.counter array;
  ses_commits : Tel.Instrument.counter array;
  ses_injected : Tel.Instrument.counter array;
  ses_crashed : Tel.Instrument.gauge array;
  ses_parasite_on : bool Atomic.t array;
      (* set by a parasitic worker when its takeover begins *)
  ses_crasher : int option;  (* the plan's first crashing slot *)
  ses_latency : Tel.Latency_recorder.t option;
}

let session_plan ses = ses.ses_plan
let session_registry ses = ses.ses_registry
let session_liveness ses = ses.ses_liveness
let session_blame ses = ses.ses_blame
let session_latency ses = ses.ses_latency

let session_crashed ses d =
  Tel.Instrument.gauge_value ses.ses_crashed.(d) = 1

let session_injected ses d = Tel.Instrument.value ses.ses_injected.(d)

let sample ses d =
  let v a = Tel.Instrument.value a.(d) in
  let attempts = v ses.ses_attempts in
  let commits = v ses.ses_commits in
  {
    ops = v ses.ses_ops;
    trycs = v ses.ses_trycs;
    commits;
    aborts = max 0 (attempts - commits);
  }

let samples ses = Array.init ses.ses_plan.Plan.domains (sample ses)

type report = {
  rep_domain : int;
  rep_fault : Plan.fault;
  rep_expected : Pc.cls;
  rep_observed : Pc.cls;
  rep_first : sample;
  rep_last : sample;
  rep_crashed : bool;
}

let report_ok r = Pc.equal_cls r.rep_observed r.rep_expected

type outcome = {
  o_plan : Plan.t;
  o_workload : string;
  o_reports : report list;
  o_ok : bool;
  o_events : Tev.t list;
  o_blame : Tel.Blame_graph.t option;
}

(* The handler runs on every worker domain; its per-domain identity
   (which fault, which counters) travels in DLS, set by the worker
   before its first transaction.  Domains without a registered identity
   (the watchdog, unrelated code in the same process) see only
   [Proceed]. *)
type dstate = {
  ds_fault : Plan.fault;
  ds_ops : Tel.Instrument.counter;
  ds_injected : Tel.Instrument.counter;
}

let dls : dstate option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let handler point =
  match !(Domain.DLS.get dls) with
  | None -> Stm.Chaos.Proceed
  | Some st ->
      (* The domain's operation clock: one tick per interception-point
         firing, the coordinate system of every planned fault instant.
         The counter is single-writer (this domain), so read-then-incr
         is the old fetch_and_add. *)
      let n = Tel.Instrument.value st.ds_ops in
      Tel.Instrument.incr st.ds_ops;
      let action =
        match st.ds_fault with
        | Plan.Healthy | Plan.Parasitic _ -> Stm.Chaos.Proceed
        | Plan.Crash { at_op; holding_locks } ->
            let trigger =
              if holding_locks then point = Stm.Obs.Pre_commit
              else point = Stm.Obs.Read
            in
            if trigger && n >= at_op then Stm.Chaos.Crash
            else Stm.Chaos.Proceed
        | Plan.Stall { period; spins } ->
            if n mod period = 0 then Stm.Chaos.Stall spins
            else Stm.Chaos.Proceed
        | Plan.Abort_storm { from_op; until_op } ->
            if point = Stm.Obs.Read && n >= from_op && n < until_op then
              Stm.Chaos.Abort
            else Stm.Chaos.Proceed
      in
      (match action with
      | Stm.Chaos.Proceed -> ()
      | Stm.Chaos.Abort | Stm.Chaos.Stall _ | Stm.Chaos.Crash ->
          Tel.Instrument.incr st.ds_injected);
      action

exception Stop_worker

type workload = {
  w_name : string;
  w_make : domains:int -> int -> unit -> unit -> unit;
}

(* Every transaction writes t-variable 0 (plus one other), so every pair
   of domains conflicts: a crashed lock holder necessarily strands the
   whole peer set. *)
let hot_set ~tvars =
  let make ~domains:_ =
    let shared = Array.init (max 2 tvars) (fun _ -> Stm.tvar 0) in
    let n = Array.length shared in
    fun d ->
      let st = ref (d + 1) in
      fun () ->
        let r = !st * 48271 mod 0x7FFFFFFF in
        st := r;
        let other = 1 + (r mod (n - 1)) in
        fun () ->
          let v0 = Stm.read shared.(0) in
          let vo = Stm.read shared.(other) in
          Stm.write shared.(0) (v0 + 1);
          Stm.write shared.(other) (vo + 1)
  in
  { w_name = Fmt.str "hot-set[tvars=%d]" (max 2 tvars); w_make = make }

(* A parasitic turn spins forever on [mine], a t-variable nobody
   writes — active forever, never conflicting, never reaching tryC.

   Where the parasitic takeover happens is core-dependent.  Under the
   non-blocking cores it is a fresh transaction whose read set is only
   [mine]: reads never block, so the first attempt succeeds and stays
   active forever — and the read set *must* stay private, because
   DSTM's per-read read-set revalidation and NOrec's value checks would
   abort a parasite that had read a shared t-variable some peer keeps
   writing.  Under the global-lock serializer that fresh transaction
   would instead have to win an unfair spinlock from a cold start
   against hot committers, with the facade's backoff growing on every
   failure — a race it can lose for whole observation windows.  There
   the takeover happens *inside* a winning transaction: the worker runs
   its workload body (which writes the shared t-variable, so the
   serializer is held by then) and, once past the onset, simply never
   reaches tryC — stranding every peer deterministically (prior reads
   in the set are harmless: the serializer validates nothing). *)
let worker ~stop ~next ~mine ~algo ~fault ~parasite_gate ~parasite_on ~ops
    ~injected ~attempts ~trycs ~commits ~crashed ~lat d () =
  Domain.DLS.get dls :=
    Some { ds_fault = fault; ds_ops = ops; ds_injected = injected };
  (* Open-loop latency: mark before the transaction, complete after.  A
     body that dies on [Stm.Chaos.Crashed] leaves its mark in place on
     purpose — the dead domain's in-flight age is the censored sample
     the recorder's open-loop quantiles keep folding in. *)
  let mark () =
    let sched = Tel.Latency_recorder.now_ns () in
    Option.iter (fun r -> Tel.Latency_recorder.mark r d ~sched) lat;
    sched
  in
  let complete sched =
    Option.iter
      (fun r ->
        Tel.Latency_recorder.complete r d ~start:sched
          ~finish:(Tel.Latency_recorder.now_ns ()))
      lat
  in
  (* Blame identity: plan slot, not raw Domain.self — unconditional
     (one DLS write per worker lifetime, nothing on the hot path). *)
  Stm.Blame.set_self d;
  let parasitic_from =
    match fault with Plan.Parasitic { from_op } -> Some from_op | _ -> None
  in
  let parasitic_now () =
    match parasitic_from with
    | Some from -> parasite_gate () && Tel.Instrument.value ops >= from
    | None -> false
  in
  let parasite_spin () =
    Atomic.set parasite_on true;
    while true do
      ignore (Stm.read mine);
      if Atomic.get stop then raise Stop_worker;
      Domain.cpu_relax ()
    done
  in
  let in_body_takeover = algo = Stm.Algo.Global_lock in
  (try
     while not (Atomic.get stop) do
       if (not in_body_takeover) && parasitic_now () then begin
         ignore (mark ());
         Stm.atomically (fun () ->
             Tel.Instrument.incr attempts;
             parasite_spin ())
       end
       else begin
         let body = next () in
         let sched = mark () in
         Stm.atomically (fun () ->
             (* Re-run on every attempt: a permanently starving domain
                still gets to observe the stop flag. *)
             if Atomic.get stop then raise Stop_worker;
             Tel.Instrument.incr attempts;
             body ();
             if in_body_takeover && parasitic_now () then parasite_spin ();
             Tel.Instrument.incr trycs);
         Tel.Instrument.incr commits;
         complete sched
       end
     done
   with
  | Stop_worker -> ()
  | Stm.Chaos.Crashed -> Tel.Instrument.set_gauge crashed 1);
  Stm.Blame.set_self (-1);
  Domain.DLS.get dls := None

let crash_landed ses =
  match ses.ses_crasher with None -> true | Some cd -> session_crashed ses cd

let counters_of (s : sample) =
  Emp.counters ~ops:s.ops ~trycs:s.trycs ~commits:s.commits ~aborts:s.aborts

let with_session ?(workload = hot_set ~tvars:4) ?(blame = false)
    ?(latency = false) ?registry (plan : Plan.t) f =
  let nd = plan.Plan.domains in
  let reg =
    match registry with Some r -> r | None -> Tel.Registry.create ()
  in
  let per name help =
    Array.init nd (fun d ->
        Tel.Registry.counter reg
          ~labels:[ ("domain", string_of_int d) ]
          ~help name)
  in
  let ops =
    per "tm_chaos_ops_total"
      "Interception-point firings (the domain's operation clock)"
  in
  let attempts = per "tm_chaos_attempts_total" "Transaction attempts started" in
  let trycs =
    per "tm_chaos_trycs_total" "Transaction bodies that reached tryC"
  in
  let commits = per "tm_chaos_commits_total" "Transactions committed" in
  let injected =
    per "tm_chaos_injected_total" "Faults injected (non-Proceed actions)"
  in
  let crashed =
    Array.init nd (fun d ->
        Tel.Registry.gauge reg
          ~labels:[ ("domain", string_of_int d) ]
          ~help:"1 after the worker died on Stm.Chaos.Crashed"
          "tm_chaos_crashed")
  in
  let sources =
    Array.init nd (fun d ->
        Tel.Liveness_gauge.source
          ~ops:(fun () -> Tel.Instrument.value ops.(d))
          ~trycs:(fun () -> Tel.Instrument.value trycs.(d))
          ~commits:(fun () -> Tel.Instrument.value commits.(d))
          ~aborts:(fun () ->
            max 0
              (Tel.Instrument.value attempts.(d)
              - Tel.Instrument.value commits.(d))))
  in
  let liveness = Tel.Liveness_gauge.create reg ~sources in
  let blame_graph =
    if blame then Some (Tel.Blame_graph.create reg ~domains:nd) else None
  in
  (* Workers are unthrottled, so the coordinated-omission interval is
     the transaction time scale, not a wall-clock arrival rate. *)
  let lat =
    if latency then
      Some
        (Tel.Latency_recorder.create ~registry:reg ~metric:"tm_chaos_lat"
           ~interval_ns:50_000 ~domains:nd ())
    else None
  in
  let parasite_on = Array.init nd (fun _ -> Atomic.make false) in
  let crasher =
    Array.find_index
      (function Plan.Crash _ -> true | _ -> false)
      plan.Plan.faults
  in
  let ses =
    {
      ses_plan = plan;
      ses_registry = reg;
      ses_liveness = liveness;
      ses_blame = blame_graph;
      ses_ops = ops;
      ses_attempts = attempts;
      ses_trycs = trycs;
      ses_commits = commits;
      ses_injected = injected;
      ses_crashed = crashed;
      ses_parasite_on = parasite_on;
      ses_crasher = crasher;
      ses_latency = lat;
    }
  in
  (* Select the plan's core before creating the t-variables (a
     t-variable belongs to the algorithm that uses it) and restore the
     previous selection only after the workers are joined. *)
  let prev_algo = Stm.algo () in
  Stm.set_algo plan.Plan.algo;
  let slot = workload.w_make ~domains:nd in
  let priv = Array.init nd (fun _ -> Stm.tvar 0) in
  let stop = Atomic.make false in
  (* In scenarios that combine a crasher with a parasite, the parasite's
     onset waits for the crash to have landed: the expectations read the
     faults as a causal sequence (crash first, then a parasite appears
     in the wreckage), and per-domain op clocks cannot order the onsets
     — under the serializer the eventual winner's clock outruns a
     starving peer's arbitrarily.  With no crasher in the plan the gate
     is always open. *)
  let parasite_gate () = crash_landed ses in
  Stm.Chaos.install handler;
  Option.iter
    (fun g -> Stm.Blame.install (Tel.Blame_graph.sink_of g))
    blame_graph;
  Fun.protect
    ~finally:(fun () ->
      (* Workers are joined by now: drop the plan (and the blame sink)
         and release core-global locks stranded by crashed domains (the
         serializer, the sequence lock), so a crash run cannot starve
         every later run of the same core in this process.  Must happen
         while the plan's core is still the selected one. *)
      Stm.recover ();
      Stm.set_algo prev_algo)
    (fun () ->
      let ds =
        List.init nd (fun d ->
            Domain.spawn
              (worker ~stop ~next:(slot d) ~mine:priv.(d)
                 ~algo:plan.Plan.algo ~fault:plan.Plan.faults.(d) ~parasite_gate
                 ~parasite_on:parasite_on.(d) ~ops:ops.(d)
                 ~injected:injected.(d) ~attempts:attempts.(d)
                 ~trycs:trycs.(d) ~commits:commits.(d) ~crashed:crashed.(d)
                 ~lat d))
      in
      let finish () =
        Atomic.set stop true;
        List.iter Domain.join ds
      in
      match f ses with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* The window observes the steady faulty state, and both of its edges
   can wait on the run itself, for at most [wait_budget] seconds each.

   Fault onsets sit a few hundred operations in — microseconds on an
   idle machine — but a loaded one can keep a domain off-core for the
   whole warmup, and a window that opens before a crash or a parasitic
   takeover misreads every domain.  So the first sample waits until
   every planned crash has happened and every planned parasite has
   taken over.  Stalls and abort storms run on the op clock from the
   start and need no wait.

   A live domain the machine kept off-core for most of the window can
   misread: with no op it reads as crashed, with a handful of ops and
   no commit as starving.  So the last sample also waits until every
   domain the plan does not crash has ticked [min_window_ops] times in
   the window.  Starving peers still tick (every abort fires
   interception points), so the wait does not hide a starvation.

   Blame runs classify starving domains from the events they witnessed
   in the window, and a victim below [Blame_graph.min_events] reads as
   quiet.  A victim spinning out a long wait budget per event on a
   loaded machine can fall short in a fixed window, so the last sample
   waits until every domain starving so far has witnessed that many. *)
let wait_budget = 1.0
let min_window_ops = 16

let wait_while busy =
  let deadline = Unix.gettimeofday () +. wait_budget in
  while busy () && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done

let domains_of ses = List.init ses.ses_plan.Plan.domains Fun.id

(* Under the serializer, a parasite gated on a crash can never take
   over: the crash strands the serializer its in-body takeover needs.
   The plan expects that parasite to starve, which it does from the
   moment the crash lands. *)
let fault_landed ses d =
  match ses.ses_plan.Plan.faults.(d) with
  | Plan.Crash _ -> session_crashed ses d
  | Plan.Parasitic _ ->
      Atomic.get ses.ses_parasite_on.(d)
      || (ses.ses_plan.Plan.algo = Stm.Algo.Global_lock
         && ses.ses_crasher <> None && crash_landed ses)
  | Plan.Healthy | Plan.Stall _ | Plan.Abort_storm _ -> true

let onsets_pending ses () =
  not (List.for_all (fault_landed ses) (domains_of ses))

let ops_short ses first () =
  List.exists
    (fun d ->
      (match ses.ses_plan.Plan.faults.(d) with
      | Plan.Crash _ -> false
      | _ -> true)
      && (sample ses d).ops - first.(d).ops < min_window_ops)
    (domains_of ses)

let witnesses_short ses first g () =
  List.exists
    (fun d ->
      Pc.equal_cls
        (Emp.classify_counters ~first:(counters_of first.(d))
           ~last:(counters_of (sample ses d)))
        Pc.Starving
      && Tel.Blame_graph.victim_total g d < Tel.Blame_graph.min_events)
    (domains_of ses)

let run ?(workload = hot_set ~tvars:4) ?blame ?latency ?(warmup = 0.05)
    ?(window = 0.15) ?registry ?on_sample (plan : Plan.t) =
  let nd = plan.Plan.domains in
  let scrape ses ts =
    match on_sample with
    | Some f ->
        Option.iter Tel.Blame_graph.refresh ses.ses_blame;
        Option.iter
          (fun r ->
            Tel.Latency_recorder.publish r
              ~now:(Tel.Latency_recorder.now_ns ()))
          ses.ses_latency;
        f (Tel.Registry.scrape ses.ses_registry ~ts)
    | None -> ()
  in
  let first, last, ses =
    with_session ~workload ?blame ?latency ?registry plan (fun ses ->
        Unix.sleepf warmup;
        wait_while (onsets_pending ses);
        Option.iter Tel.Blame_graph.mark_window ses.ses_blame;
        let first = samples ses in
        (* Baseline the liveness gauge on the exact watchdog samples so
           the exported classes equal the verdicts below. *)
        Tel.Liveness_gauge.rebase_with ses.ses_liveness
          (Array.map counters_of first);
        scrape ses 0;
        Unix.sleepf window;
        wait_while (ops_short ses first);
        Option.iter
          (fun g -> wait_while (witnesses_short ses first g))
          ses.ses_blame;
        let last = samples ses in
        ignore
          (Tel.Liveness_gauge.update_with ses.ses_liveness
             (Array.map counters_of last));
        scrape ses 1;
        (first, last, ses))
  in
  (* [with_session] has joined the workers, so the crashed gauges are
     final. *)
  let reports =
    List.init nd (fun d ->
        {
          rep_domain = d;
          rep_fault = plan.Plan.faults.(d);
          rep_expected = plan.Plan.expected.(d);
          rep_observed =
            Emp.classify_counters ~first:(counters_of first.(d))
              ~last:(counters_of last.(d));
          rep_first = first.(d);
          rep_last = last.(d);
          rep_crashed = Tel.Instrument.gauge_value ses.ses_crashed.(d) = 1;
        })
  in
  let h = Plan.horizon plan in
  let verdicts =
    List.map
      (fun r ->
        Tev.instant ~ts:h ~tid:r.rep_domain Tev.Monitor "chaos-verdict"
          [
            ("class", Tev.Str (Pc.cls_label r.rep_observed));
            ("expected", Tev.Str (Pc.cls_label r.rep_expected));
            ("algo", Tev.Str (Stm.Algo.name plan.Plan.algo));
          ])
      reports
  in
  (* With blame armed, the trace additionally carries the graph's
     stable classification — one evidence instant per domain, each
     repeating the graph-level shape so the analysis rule needs no
     cross-event join.  Like the verdicts (and unlike raw edge
     weights), these are the empirically stable reduction the CI
     byte-determinism gate compares. *)
  let blame_events =
    match ses.ses_blame with
    | None -> []
    | Some g ->
        Tel.Blame_graph.refresh g;
        let classes =
          Array.of_list (List.map (fun r -> r.rep_observed) reports)
        in
        let shape, evidence = Tel.Blame_graph.classify g ~classes in
        List.init nd (fun d ->
            Tev.instant ~ts:h ~tid:d Tev.Monitor "blame-evidence"
              [
                ( "evidence",
                  Tev.Str (Tel.Blame_graph.evidence_label evidence.(d)) );
                ("shape", Tev.Str (Tel.Blame_graph.shape_label shape));
                ("algo", Tev.Str (Stm.Algo.name plan.Plan.algo));
              ])
  in
  {
    o_plan = plan;
    o_workload = workload.w_name;
    o_reports = reports;
    o_ok = List.for_all report_ok reports;
    o_events = Plan.trace_events plan @ verdicts @ blame_events;
    o_blame = ses.ses_blame;
  }

let delta r f = f r.rep_last - f r.rep_first

let pp_report ppf r =
  Fmt.pf ppf
    "domain %d: %-22s expect %-11s observed %-11s %-8s d_ops %d, d_tryC %d, \
     d_commits %d, d_aborts %d%s"
    r.rep_domain
    (Plan.fault_label r.rep_fault)
    (Pc.cls_label r.rep_expected)
    (Pc.cls_label r.rep_observed)
    (if report_ok r then "ok" else "MISMATCH")
    (delta r (fun s -> s.ops))
    (delta r (fun s -> s.trycs))
    (delta r (fun s -> s.commits))
    (delta r (fun s -> s.aborts))
    (if r.rep_crashed then " [crashed]" else "")

let pp_table ppf o =
  Fmt.pf ppf "@[<v>chaos %s workload=%s algo=%s seed=%d domains=%d@,"
    o.o_plan.Plan.scenario o.o_workload
    (Stm.Algo.name o.o_plan.Plan.algo)
    o.o_plan.Plan.seed o.o_plan.Plan.domains;
  List.iter (fun r -> Fmt.pf ppf "%a@," pp_report r) o.o_reports;
  Fmt.pf ppf "verdict: %s@]"
    (if o.o_ok then "ok (observed classes match the scenario)"
     else "MISMATCH (observed classes contradict the scenario)")

let to_json o =
  let b = Buffer.create 512 in
  Buffer.add_string b
    (Fmt.str
       "{\"scenario\":%S,\"workload\":%S,\"algo\":%S,\"seed\":%d,\"domains\":%d,\"ok\":%b,\"verdicts\":["
       o.o_plan.Plan.scenario o.o_workload
       (Stm.Algo.name o.o_plan.Plan.algo)
       o.o_plan.Plan.seed o.o_plan.Plan.domains o.o_ok);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Fmt.str
           "{\"domain\":%d,\"fault\":%S,\"expected\":%S,\"observed\":%S,\"ok\":%b,\"crashed\":%b,\"window_ops\":%d,\"window_trycs\":%d,\"window_commits\":%d,\"window_aborts\":%d}"
           r.rep_domain
           (Plan.fault_label r.rep_fault)
           (Pc.cls_label r.rep_expected)
           (Pc.cls_label r.rep_observed)
           (report_ok r) r.rep_crashed
           (delta r (fun s -> s.ops))
           (delta r (fun s -> s.trycs))
           (delta r (fun s -> s.commits))
           (delta r (fun s -> s.aborts))))
    o.o_reports;
  Buffer.add_string b "]}";
  Buffer.contents b
