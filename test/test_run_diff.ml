(* Cross-run diffing: divergence detection and alignment on synthetic
   trajectories, and — the property [ddsim diff] leans on — byte-exact
   deterministic rendering of the committed sample traces/profiles in
   test/data/. *)

open Util

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec scan i = i + m <= n && (String.sub text i m = sub || scan (i + 1)) in
  scan 0

let check_contains name text sub =
  check_bool (Printf.sprintf "%s contains %S" name sub) true
    (contains_sub text sub)

let load name =
  (* tests run from _build/default/test; the repository root is two up *)
  let candidates =
    [
      Filename.concat "../../../test/data" name;
      Filename.concat "test/data" name;
      Filename.concat "data" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail (Printf.sprintf "cannot locate test/data/%s" name)
  | Some path ->
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    text

(* -- first_divergence -------------------------------------------------- *)

let test_no_divergence () =
  let t = [ (0, 3); (1, 5); (2, 4) ] in
  check_bool "identical trajectories agree" true
    (Obs.Run_diff.first_divergence t t = None)

let test_first_divergence () =
  let a = [ (0, 3); (1, 5); (2, 4); (3, 9) ] in
  let b = [ (0, 3); (1, 5); (2, 7); (3, 2) ] in
  match Obs.Run_diff.first_divergence a b with
  | Some d ->
    check_int "diverges at gate 2" 2 d.Obs.Run_diff.gate;
    check_int "a nodes" 4 d.nodes_a;
    check_int "b nodes" 7 d.nodes_b
  | None -> Alcotest.fail "expected a divergence"

let test_divergence_skips_unaligned_gates () =
  (* gate 1 exists only in a, gate 2 only in b: neither can diverge *)
  let a = [ (0, 3); (1, 99); (3, 4) ] in
  let b = [ (0, 3); (2, 42); (3, 8) ] in
  match Obs.Run_diff.first_divergence a b with
  | Some d -> check_int "first aligned disagreement" 3 d.Obs.Run_diff.gate
  | None -> Alcotest.fail "expected a divergence at gate 3"

(* -- overlay plot ------------------------------------------------------ *)

let test_overlay_plot_shape () =
  let a = [ (0, 1); (1, 8); (2, 3) ] in
  let b = [ (0, 1); (1, 2); (2, 6) ] in
  let plot = Obs.Run_diff.overlay_plot ~a ~b in
  check_contains "plot" plot "gate 0 .. 2";
  check_contains "plot" plot "a";
  check_contains "plot" plot "b";
  check_contains "plot" plot "*";
  (* 12 rows + axis + caption, plus the empty split after the trailing
     newline *)
  check_int "plot line count" 15
    (List.length (String.split_on_char '\n' plot))

let test_overlay_plot_empty () =
  check_contains "empty plot"
    (Obs.Run_diff.overlay_plot ~a:[] ~b:[])
    "no node-count samples"

(* -- deterministic rendering of the committed samples ------------------ *)

let test_trace_diff_is_deterministic () =
  let run_a = Obs.Trace_report.parse_jsonl (load "diff_trace_a.jsonl") in
  let run_b = Obs.Trace_report.parse_jsonl (load "diff_trace_b.jsonl") in
  let render () =
    Obs.Run_diff.render_traces ~label_a:"diff_trace_a.jsonl"
      ~label_b:"diff_trace_b.jsonl" run_a run_b
  in
  let report = render () in
  check_bool "rendering twice is byte-identical" true (report = render ());
  check_bool "matches the committed expectation" true
    (report = load "diff_trace_expected.txt");
  check_contains "report" report
    "first divergence: gate 2 (ccx) — 6 nodes (a) vs 8 nodes (b)";
  check_contains "report" report "compute-table hit rates:";
  check_contains "report" report "strategy=k:2"

let test_profile_diff_is_deterministic () =
  let run_a = Obs.Dd_profile.parse_jsonl (load "diff_profile_a.jsonl") in
  let run_b = Obs.Dd_profile.parse_jsonl (load "diff_profile_b.jsonl") in
  let report =
    Obs.Run_diff.render_profiles ~label_a:"diff_profile_a.jsonl"
      ~label_b:"diff_profile_b.jsonl" run_a run_b
  in
  check_bool "matches the committed expectation" true
    (report = load "diff_profile_expected.txt");
  check_contains "report" report "per-level breakdown at gate 2";
  check_contains "report" report "<-- diverges"

let test_profile_diff_without_divergence_compares_finals () =
  let run = Obs.Dd_profile.parse_jsonl (load "diff_profile_a.jsonl") in
  let report = Obs.Run_diff.render_profiles run run in
  check_contains "report" report "first divergence: none";
  (* the final snapshots are still broken down level by level *)
  check_contains "report" report "per-level breakdown at gate 2"

(* -- trace report error paths (the located-message guarantee) ---------- *)

let expect_failure name fragment thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": expected a Failure")
  | exception Failure message ->
    check_bool
      (Printf.sprintf "%s: %S mentions %S" name message fragment)
      true (contains_sub message fragment)

let trace_header = "{\"schema\":\"ddsim-trace\",\"version\":2}"

(* every hand-built document carries a valid trailer, so each case
   reaches the line it is about *)
let parse_sealed body = Obs.Trace_report.parse_jsonl (sealed_jsonl body)

let test_trace_report_locates_errors () =
  expect_failure "empty trace" "empty" (fun () ->
      Obs.Trace_report.parse_jsonl "  \n \n");
  expect_failure "foreign schema" "trace:1" (fun () ->
      parse_sealed "{\"schema\":\"ddsim-profile\",\"version\":1}\n");
  expect_failure "unknown version" "unsupported schema version" (fun () ->
      parse_sealed "{\"schema\":\"ddsim-trace\",\"version\":42}\n");
  expect_failure "truncated event line" "trace:2" (fun () ->
      parse_sealed (trace_header ^ "\n{\"kind\":\"mat_vec\",\"t\":0.1"));
  expect_failure "malformed third line" "trace:3" (fun () ->
      parse_sealed
        (trace_header
       ^ "\n{\"kind\":\"gate_applied\",\"t\":0.1,\"dur\":0,\"gate\":0}\n\
          garbage"));
  expect_failure "unknown event kind" "unknown event kind" (fun () ->
      parse_sealed (trace_header ^ "\n{\"kind\":\"not_a_kind\",\"t\":0.1}"));
  expect_failure "event without kind" "trace:2" (fun () ->
      parse_sealed (trace_header ^ "\n{\"t\":0.1}"))

let suite =
  [
    Alcotest.test_case "no divergence" `Quick test_no_divergence;
    Alcotest.test_case "first divergence" `Quick test_first_divergence;
    Alcotest.test_case "divergence skips unaligned" `Quick
      test_divergence_skips_unaligned_gates;
    Alcotest.test_case "overlay plot shape" `Quick test_overlay_plot_shape;
    Alcotest.test_case "overlay plot empty" `Quick test_overlay_plot_empty;
    Alcotest.test_case "trace diff deterministic" `Quick
      test_trace_diff_is_deterministic;
    Alcotest.test_case "profile diff deterministic" `Quick
      test_profile_diff_is_deterministic;
    Alcotest.test_case "profile diff without divergence" `Quick
      test_profile_diff_without_divergence_compares_finals;
    Alcotest.test_case "trace report locates errors" `Quick
      test_trace_report_locates_errors;
  ]
