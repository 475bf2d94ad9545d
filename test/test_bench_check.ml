(* The bench regression gate: metric classification, identity-keyed run
   pairing, tolerance semantics, and the committed BENCH_*.json baselines
   comparing clean against themselves. *)

open Util

let load name =
  let candidates =
    [
      Filename.concat "../../.." name;
      name;
      Filename.concat ".." name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail (Printf.sprintf "cannot locate %s" name)
  | Some path ->
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text

let compare ?tol baseline candidate =
  Obs.Bench_check.compare_strings ?tol ~baseline candidate

let regression_paths findings =
  List.filter_map
    (fun (f : Obs.Bench_check.finding) ->
      if f.severity = Obs.Bench_check.Regression then Some f.path else None)
    findings

(* -- committed baselines are self-clean -------------------------------- *)

let test_committed_baselines_self_compare () =
  List.iter
    (fun name ->
      let text = load name in
      let findings = compare text text in
      check_bool
        (Printf.sprintf "%s vs itself is clean" name)
        false
        (Obs.Bench_check.regressed findings))
    [ "BENCH_apply_smoke.json"; "BENCH_kernel_smoke.json" ]

(* -- tolerance semantics ----------------------------------------------- *)

let doc ~nodes ~seconds ~rate =
  Printf.sprintf
    "{\"schema\":\"test\",\"runs\":[{\"name\":\"r1\",\"final_state_nodes\":%d,\"wall_seconds\":%g,\"hit_rate\":%g}]}"
    nodes seconds rate

let base = doc ~nodes:100 ~seconds:1.0 ~rate:0.5

let test_identical_passes () =
  check_bool "identical docs are clean" false
    (Obs.Bench_check.regressed (compare base base))

let test_count_drift () =
  check_bool "5% node drift passes" false
    (Obs.Bench_check.regressed
       (compare base (doc ~nodes:105 ~seconds:1.0 ~rate:0.5)));
  let findings = compare base (doc ~nodes:150 ~seconds:1.0 ~rate:0.5) in
  check_bool "50% node drift fails" true (Obs.Bench_check.regressed findings);
  check_bool "finding names the metric" true
    (List.exists
       (fun path -> path = "$.runs[r1].final_state_nodes")
       (regression_paths findings))

let test_time_only_fails_when_slower () =
  check_bool "5x slower passes under the 10x budget" false
    (Obs.Bench_check.regressed
       (compare base (doc ~nodes:100 ~seconds:5.0 ~rate:0.5)));
  check_bool "20x slower fails" true
    (Obs.Bench_check.regressed
       (compare base (doc ~nodes:100 ~seconds:20.0 ~rate:0.5)));
  check_bool "100x faster passes" false
    (Obs.Bench_check.regressed
       (compare base (doc ~nodes:100 ~seconds:0.01 ~rate:0.5)))

let test_time_absolute_floor () =
  (* microsecond-scale smoke timings may blow the ratio but stay under
     the 0.1 s absolute floor *)
  let fast = doc ~nodes:100 ~seconds:1e-5 ~rate:0.5 in
  let jittery = doc ~nodes:100 ~seconds:9e-3 ~rate:0.5 in
  check_bool "sub-floor jitter passes despite a 900x ratio" false
    (Obs.Bench_check.regressed (compare fast jittery))

let test_rate_tolerance () =
  check_bool "rate moved 0.1 passes under 0.15" false
    (Obs.Bench_check.regressed
       (compare base (doc ~nodes:100 ~seconds:1.0 ~rate:0.6)));
  check_bool "rate moved 0.3 fails" true
    (Obs.Bench_check.regressed
       (compare base (doc ~nodes:100 ~seconds:1.0 ~rate:0.2)))

let test_custom_tolerances () =
  let tol =
    { Obs.Bench_check.time_ratio = 2.; count_ratio = 0.01; rate_tol = 0.01 }
  in
  check_bool "5% drift fails under a 1% budget" true
    (Obs.Bench_check.regressed
       (compare ~tol base (doc ~nodes:105 ~seconds:1.0 ~rate:0.5)))

(* -- structural failures ----------------------------------------------- *)

let test_missing_run_fails () =
  let two =
    "{\"runs\":[{\"name\":\"r1\",\"nodes\":5},{\"name\":\"r2\",\"nodes\":7}]}"
  in
  let one = "{\"runs\":[{\"name\":\"r1\",\"nodes\":5}]}" in
  let findings = compare two one in
  check_bool "dropped run fails" true (Obs.Bench_check.regressed findings);
  check_bool "finding names the run" true
    (List.exists (fun p -> p = "$.runs[r2]") (regression_paths findings))

let test_new_run_is_note_only () =
  let one = "{\"runs\":[{\"name\":\"r1\",\"nodes\":5}]}" in
  let two =
    "{\"runs\":[{\"name\":\"r1\",\"nodes\":5},{\"name\":\"r2\",\"nodes\":7}]}"
  in
  let findings = compare one two in
  check_bool "extra run does not fail" false
    (Obs.Bench_check.regressed findings);
  check_bool "but is noted" true
    (List.exists
       (fun (f : Obs.Bench_check.finding) ->
         f.severity = Obs.Bench_check.Note && f.path = "$.runs[r2]")
       findings)

let test_missing_metric_fails () =
  let findings =
    compare "{\"runs\":[{\"name\":\"r1\",\"nodes\":5,\"edges\":9}]}"
      "{\"runs\":[{\"name\":\"r1\",\"nodes\":5}]}"
  in
  check_bool "dropped metric fails" true (Obs.Bench_check.regressed findings)

let test_changed_identity_string_fails () =
  check_bool "changed strategy string fails" true
    (Obs.Bench_check.regressed
       (compare "{\"strategy\":\"seq\"}" "{\"strategy\":\"k:4\"}"))

let test_numeric_arrays_are_data () =
  (* trajectories are data, not metrics: element changes don't regress *)
  check_bool "numeric array changes pass" false
    (Obs.Bench_check.regressed
       (compare "{\"trajectory\":[1,2,3]}" "{\"trajectory\":[4,5,6,7]}"))

let test_parse_failure_is_a_finding () =
  let findings = compare "{not json" base in
  check_bool "parse failure regresses" true
    (Obs.Bench_check.regressed findings)

let test_render_verdict () =
  let clean = Obs.Bench_check.render (compare base base) in
  check_bool "clean verdict" true
    (String.length clean >= 14 && String.sub clean 0 14 = "bench-check OK");
  let failed =
    Obs.Bench_check.render
      (compare base (doc ~nodes:999 ~seconds:1.0 ~rate:0.5))
  in
  check_bool "failed verdict mentions REGRESSION" true
    (String.length failed >= 10 && String.sub failed 0 10 = "REGRESSION")


let test_informational_metrics_never_gate () =
  (* ledger timing leaves are scheduling-dependent: any drift passes,
     even wild ones, and produces no finding at all *)
  let doc seconds coverage =
    Printf.sprintf
      "{\"runs\":[{\"name\":\"r1\",\"nodes\":5,\"ledger_windows\":3,\"ledger_mat_vec_seconds\":%g,\"ledger_wall_coverage\":%g}]}"
      seconds coverage
  in
  let findings = compare (doc 0.001 0.99) (doc 50.0 0.2) in
  check_bool "wild informational drift passes" false
    (Obs.Bench_check.regressed findings);
  check_bool "and produces no finding" true (findings = []);
  (* ledger_mat_vec_seconds contains "seconds": the informational class
     must win over the time class, so even a >10x-with-floor move passes *)
  check_bool "informational beats the time classifier" false
    (Obs.Bench_check.regressed (compare (doc 0.01 1.) (doc 10.0 1.)));
  (* a *missing* informational metric is still a structural failure *)
  let without =
    "{\"runs\":[{\"name\":\"r1\",\"nodes\":5,\"ledger_windows\":3,\"ledger_wall_coverage\":1}]}"
  in
  check_bool "dropping an informational metric still fails" true
    (Obs.Bench_check.regressed (compare (doc 1.0 1.) without));
  (* the deterministic ledger columns stay counts *)
  let windows n =
    Printf.sprintf "{\"runs\":[{\"name\":\"r1\",\"ledger_windows\":%d}]}" n
  in
  check_bool "ledger_windows is gated as a count" true
    (Obs.Bench_check.regressed (compare (windows 3) (windows 30)))

let suite =
  [
    Alcotest.test_case "committed baselines self-compare" `Quick
      test_committed_baselines_self_compare;
    Alcotest.test_case "identical passes" `Quick test_identical_passes;
    Alcotest.test_case "count drift" `Quick test_count_drift;
    Alcotest.test_case "time only fails when slower" `Quick
      test_time_only_fails_when_slower;
    Alcotest.test_case "time absolute floor" `Quick test_time_absolute_floor;
    Alcotest.test_case "rate tolerance" `Quick test_rate_tolerance;
    Alcotest.test_case "custom tolerances" `Quick test_custom_tolerances;
    Alcotest.test_case "missing run fails" `Quick test_missing_run_fails;
    Alcotest.test_case "new run is note only" `Quick test_new_run_is_note_only;
    Alcotest.test_case "missing metric fails" `Quick test_missing_metric_fails;
    Alcotest.test_case "changed identity fails" `Quick
      test_changed_identity_string_fails;
    Alcotest.test_case "numeric arrays are data" `Quick
      test_numeric_arrays_are_data;
    Alcotest.test_case "parse failure is a finding" `Quick
      test_parse_failure_is_a_finding;
    Alcotest.test_case "render verdict" `Quick test_render_verdict;
    Alcotest.test_case "informational metrics never gate" `Quick
      test_informational_metrics_never_gate;
  ]
