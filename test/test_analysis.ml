open Ksurf
module Finding = Ksurf_analysis.Finding
module Invariants = Ksurf_analysis.Invariants
module Determinism = Ksurf_analysis.Determinism
module Scenarios = Ksurf_analysis.Scenarios
module Sanitizer = Ksurf_analysis.Sanitizer

let codes findings = List.map (fun (f : Finding.t) -> f.Finding.code) findings

(* --- invariants on synthetic event streams ---------------------------- *)

let test_invariants_scheduled_in_past () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Scheduled { now = 10.0; at = 5.0; pid = 1 });
  Alcotest.(check (list string)) "flagged" [ "scheduled-in-past" ]
    (codes (Invariants.finish ~drained:false state))

let test_invariants_double_wake () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Suspended { now = 0.0; pid = 1; token = 1 });
  Invariants.on_event state (Engine.Woken { now = 1.0; pid = 1; token = 1 });
  Invariants.on_event state (Engine.Woken { now = 2.0; pid = 1; token = 1 });
  Alcotest.(check (list string)) "flagged" [ "double-wake" ]
    (codes (Invariants.finish ~drained:false state))

let test_invariants_wake_without_suspend () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Woken { now = 1.0; pid = 1; token = 9 });
  Alcotest.(check (list string)) "flagged" [ "wake-without-suspend" ]
    (codes (Invariants.finish ~drained:false state))

let test_invariants_barrier_generation () =
  let state = Invariants.create () in
  let arrive generation arrived =
    Invariants.on_event state
      (Engine.Sync
         {
           now = 0.0;
           pid = 1;
           name = "bar";
           op = Engine.Barrier_arrive { generation; arrived; parties = 2 };
         })
  in
  arrive 2 1;
  arrive 1 2;
  Alcotest.(check (list string)) "regression flagged"
    [ "barrier-generation-regressed" ]
    (codes (Invariants.finish ~drained:false state))

let test_invariants_stuck_suspension () =
  let state = Invariants.create () in
  Invariants.on_event state (Engine.Suspended { now = 0.0; pid = 1; token = 3 });
  Alcotest.(check (list string)) "stuck at drain" [ "suspended-at-drain" ]
    (codes (Invariants.finish ~drained:true state));
  Alcotest.(check (list string)) "quiet when stopped early" []
    (codes (Invariants.finish ~drained:false state))

let test_invariants_clean_on_real_run () =
  (* A full simulated engine run satisfies every invariant. *)
  let state = Invariants.create () in
  ignore
    (Scenarios.run Scenarios.Inversion ~seed:3 ~on_engine:(fun engine ->
         Engine.add_probe engine (Invariants.on_event state)));
  Alcotest.(check bool) "events flowed" true (Invariants.events state > 0);
  Alcotest.(check (list string)) "clean" []
    (codes (Invariants.finish ~drained:true state))

(* --- determinism checker ---------------------------------------------- *)

let deterministic_run ~probe =
  let engine = Engine.create ~seed:11 () in
  Engine.add_probe engine probe;
  let lock = Lock.create ~engine ~name:"det" in
  for _ = 1 to 3 do
    Engine.spawn engine (fun () -> Lock.with_hold lock 5.0)
  done;
  Engine.run engine

let test_determinism_passes () =
  let result = Determinism.check ~run:deterministic_run () in
  Alcotest.(check bool) "deterministic" true (Determinism.deterministic result);
  Alcotest.(check bool) "events counted" true (result.Determinism.events_first > 0);
  Alcotest.(check int) "same event count" result.Determinism.events_first
    result.Determinism.events_second;
  Alcotest.(check (list string)) "no findings" []
    (codes (Determinism.to_findings result))

let test_determinism_catches_divergence () =
  (* A scenario that secretly changes between runs — the checker must
     pinpoint the first divergent event. *)
  let calls = ref 0 in
  let run ~probe =
    incr calls;
    let extra = if !calls > 1 then 1.0 else 0.0 in
    let engine = Engine.create () in
    Engine.add_probe engine probe;
    Engine.spawn engine (fun () -> Engine.delay (10.0 +. extra));
    Engine.run engine
  in
  let result = Determinism.check ~run () in
  Alcotest.(check bool) "divergence detected" false
    (Determinism.deterministic result);
  (match result.Determinism.divergence with
  | None -> Alcotest.fail "expected a divergence record"
  | Some d ->
      Alcotest.(check bool) "both runs present" true
        (d.Determinism.first <> None && d.Determinism.second <> None));
  Alcotest.(check (list string)) "one finding" [ "divergent-replay" ]
    (codes (Determinism.to_findings result))

(* --- sanitizer orchestration ------------------------------------------ *)

let test_checks_of_string () =
  (match Sanitizer.checks_of_string "lockdep,determinism,invariants" with
  | Ok [ Sanitizer.Lockdep; Sanitizer.Determinism; Sanitizer.Invariants ] -> ()
  | _ -> Alcotest.fail "full selection should parse in order");
  (match Sanitizer.checks_of_string " lockdep , invariants " with
  | Ok [ Sanitizer.Lockdep; Sanitizer.Invariants ] -> ()
  | _ -> Alcotest.fail "whitespace should be tolerated");
  match Sanitizer.checks_of_string "lockdep,bogus" with
  | Error "bogus" -> ()
  | _ -> Alcotest.fail "unknown check should be reported by name"

let test_stock_scenarios_clean () =
  (* Acceptance: every stock scenario, all three checks and its own
     accounting, two seeds. *)
  List.iter
    (fun scenario ->
      List.iter
        (fun seed ->
          let outcome = Sanitizer.scenario scenario ~seed in
          Alcotest.(check (list string))
            (Printf.sprintf "%s seed=%d clean"
               (Scenarios.to_string scenario)
               seed)
            []
            (codes outcome.Sanitizer.findings);
          Alcotest.(check bool) "probes saw traffic" true
            (outcome.Sanitizer.events > 0);
          Alcotest.(check int) "two runs: static checks ride the first" 2
            outcome.Sanitizer.runs)
        [ 42; 7 ])
    Scenarios.stock

let test_inversion_scenario_flagged () =
  let outcome = Sanitizer.scenario Scenarios.Inversion ~seed:42 in
  let cycle_codes =
    List.filter (fun c -> c = "lock-order-cycle")
      (codes outcome.Sanitizer.findings)
  in
  Alcotest.(check int) "exactly one cycle" 1 (List.length cycle_codes);
  Alcotest.(check bool) "errors present" true
    (Finding.errors outcome.Sanitizer.findings <> [])

(* --- accounting --------------------------------------------------------- *)

let accounting findings =
  List.map
    (fun (f : Finding.t) -> Printf.sprintf "%s/%s" f.Finding.check f.Finding.code)
    findings

(* Accounting checks are pure functions of a scenario's result: a real
   result passes and a doctored copy yields an accounting finding. *)
let test_accounting_flags_doctored_results () =
  let fleet =
    Fleet.run
      {
        Fleet.default_config with
        Fleet.tenants = 8;
        churn_per_day = 16.0;
        policy = Tenant_policy.Adaptive;
        host_cores = 16;
        day_ns = 4e8;
        mean_rate_per_s = 40.0;
        epoch_ns = 5e7;
      }
  in
  Alcotest.(check (list string)) "tenancy consistent" []
    (accounting (Scenarios.tenancy_accounting fleet));
  Alcotest.(check (list string)) "replica imbalance flagged"
    [ "accounting/tenancy" ]
    (accounting
       (Scenarios.tenancy_accounting
          { fleet with Fleet.replica_imbalance = 1 }));
  let cell policy = Driftbench.run (Scenarios.drift_cell ~policy ~seed:42) in
  let adaptive = cell Driftbench.Adaptive and static = cell Driftbench.Static in
  let drift ?(transitions = adaptive.Driftbench.swaps) adaptive =
    accounting (Scenarios.drift_accounting ~adaptive ~static ~transitions)
  in
  Alcotest.(check (list string)) "drift consistent" [] (drift adaptive);
  Alcotest.(check (list string)) "unseen hot-swap flagged"
    [ "accounting/adaptive-drift" ]
    (drift ~transitions:(adaptive.Driftbench.swaps - 1) adaptive);
  Alcotest.(check (list string)) "missing drift flagged"
    [ "accounting/adaptive-drift"; "accounting/adaptive-drift" ]
    (drift { adaptive with Driftbench.drifts = 0; drift_at_ns = None });
  let replay =
    {
      Scenarios.cells = 3;
      executed = 3;
      converged = true;
      lost = [];
      litter = 0;
      io =
        {
          Faultio.ops = 40;
          transients = 5;
          enospc = 2;
          eio = 0;
          torn = 0;
          fsync_dropped = 0;
          crashes = 1;
        };
    }
  in
  Alcotest.(check (list string)) "journal consistent" []
    (accounting (Scenarios.journalled_accounting replay));
  Alcotest.(check (list string)) "lost cell flagged"
    [ "accounting/journalled-faults" ]
    (accounting
       (Scenarios.journalled_accounting { replay with lost = [ "varbench:1" ] }))

(* A workload that raises on its [n]th execution, after a clean engine
   run: the harness must turn that into a crash finding, not raise. *)
let raising_on n =
  let calls = ref 0 in
  fun ~on_engine ->
    incr calls;
    let engine = Engine.create ~seed:3 () in
    on_engine engine;
    Engine.spawn engine (fun () -> Engine.delay 1.0);
    Engine.run engine;
    if !calls = n then failwith "boom"

let test_crash_becomes_finding () =
  List.iter
    (fun n ->
      let outcome = Sanitizer.check (raising_on n) in
      let label = Printf.sprintf "raise on run %d" n in
      Alcotest.(check (list string)) label [ "crash" ]
        (List.map (fun (f : Finding.t) -> f.Finding.check)
           outcome.Sanitizer.findings);
      Alcotest.(check int) (label ^ ": runs") n outcome.Sanitizer.runs;
      Alcotest.(check bool) (label ^ ": no result") true
        (outcome.Sanitizer.result = None))
    [ 1; 2 ]

let test_finding_sort_and_csv () =
  let w = Finding.make ~severity:Finding.Warning ~check:"b" ~code:"w"
      ~message:"later" ()
  in
  let e =
    Finding.make ~severity:Finding.Error ~check:"a" ~code:"e" ~message:"first"
      ~witness:[ "line1"; "line2" ] ()
  in
  (match Finding.sort [ w; e ] with
  | [ f1; f2 ] ->
      Alcotest.(check string) "errors first" "e" f1.Finding.code;
      Alcotest.(check string) "warnings after" "w" f2.Finding.code
  | _ -> Alcotest.fail "sort changed cardinality");
  let path = Filename.temp_file "ksan" ".csv" in
  Finding.export_csv ~path [ e; w ];
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "header + two rows" 3 (List.length lines);
  Alcotest.(check bool) "header labels columns" true
    (Test_util.contains ~sub:"severity" (List.hd lines));
  Alcotest.(check bool) "witness joined into one cell" true
    (List.exists (Test_util.contains ~sub:"line1 | line2") lines)

let suite =
  [
    Alcotest.test_case "invariants: scheduled in past" `Quick
      test_invariants_scheduled_in_past;
    Alcotest.test_case "invariants: double wake" `Quick
      test_invariants_double_wake;
    Alcotest.test_case "invariants: wake without suspend" `Quick
      test_invariants_wake_without_suspend;
    Alcotest.test_case "invariants: barrier generation" `Quick
      test_invariants_barrier_generation;
    Alcotest.test_case "invariants: stuck suspension" `Quick
      test_invariants_stuck_suspension;
    Alcotest.test_case "invariants: clean on real run" `Quick
      test_invariants_clean_on_real_run;
    Alcotest.test_case "determinism: passes" `Quick test_determinism_passes;
    Alcotest.test_case "determinism: catches divergence" `Quick
      test_determinism_catches_divergence;
    Alcotest.test_case "checks parsing" `Quick test_checks_of_string;
    Alcotest.test_case "stock scenarios clean" `Slow test_stock_scenarios_clean;
    Alcotest.test_case "inversion flagged" `Quick
      test_inversion_scenario_flagged;
    Alcotest.test_case "accounting flags doctored results" `Quick
      test_accounting_flags_doctored_results;
    Alcotest.test_case "crash becomes a finding" `Quick
      test_crash_becomes_finding;
    Alcotest.test_case "finding sort and csv" `Quick test_finding_sort_and_csv;
  ]
