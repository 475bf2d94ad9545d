open Dd_complex
open Util

let test_initial_state () =
  let engine = Dd_sim.Engine.create 4 in
  check_cnum "starts in |0000>" Cnum.one (Dd_sim.Engine.amplitude engine 0);
  check_int "linear initial DD" 4 (Dd_sim.Engine.state_node_count engine)

let test_apply_gate () =
  let engine = Dd_sim.Engine.create 1 in
  Dd_sim.Engine.apply_gate engine (Gate.h 0);
  let amp = Cnum.of_float (1. /. sqrt 2.) in
  check_cnum "H|0> low" amp (Dd_sim.Engine.amplitude engine 0);
  check_cnum "H|0> high" amp (Dd_sim.Engine.amplitude engine 1)

let test_run_matches_dense () =
  List.iter
    (fun seed ->
      let circuit = Standard.random_circuit ~seed ~qubits:6 ~gates:50 () in
      let dense = dense_state_of_circuit circuit in
      let engine = Dd_sim.Engine.create 6 in
      Dd_sim.Engine.run engine circuit;
      check_float
        (Printf.sprintf "fidelity with dense reference, seed %d" seed)
        1.
        (Dd_sim.Engine.fidelity_dense engine dense))
    [ 10; 20; 30 ]

let test_sequential_stats () =
  let circuit = Standard.random_circuit ~seed:5 ~qubits:4 ~gates:25 () in
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.run engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  check_int "one mat-vec per gate" 25 stats.Dd_sim.Sim_stats.mat_vec_mults;
  check_int "no mat-mat in sequential mode" 0
    stats.Dd_sim.Sim_stats.mat_mat_mults;
  check_int "gates seen" 25 stats.Dd_sim.Sim_stats.gates_seen

let test_reset () =
  let engine = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.run engine (Standard.ghz 3);
  Dd_sim.Engine.reset engine;
  check_cnum "back to |000>" Cnum.one (Dd_sim.Engine.amplitude engine 0);
  check_int "stats cleared" 0
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.mat_vec_mults

let test_run_width_mismatch () =
  let engine = Dd_sim.Engine.create 2 in
  Alcotest.check_raises "width mismatch"
    (Dd_sim.Error.Error
       (Dd_sim.Error.Width_mismatch
          { what = "Engine.run"; expected = 2; actual = 3 }))
    (fun () -> Dd_sim.Engine.run engine (Standard.ghz 3))

let test_set_state_validation () =
  let engine = Dd_sim.Engine.create 3 in
  let ctx = Dd_sim.Engine.context engine in
  Alcotest.check_raises "height mismatch"
    (Dd_sim.Error.Error
       (Dd_sim.Error.Width_mismatch
          { what = "Engine.set_state"; expected = 3; actual = 2 }))
    (fun () -> Dd_sim.Engine.set_state engine (Dd.Vdd.basis ctx ~n:2 0))

let test_measure_ghz_correlated () =
  (* GHZ measurement must give all zeros or all ones *)
  List.iter
    (fun seed ->
      let engine = Dd_sim.Engine.create ~seed 5 in
      Dd_sim.Engine.run engine (Standard.ghz 5);
      let outcome = Dd_sim.Engine.measure_all engine in
      check_bool
        (Printf.sprintf "GHZ collapse, seed %d" seed)
        true
        (outcome = 0 || outcome = 31))
    [ 1; 2; 3; 4; 5; 6 ]

let test_measure_qubit_collapses () =
  let engine = Dd_sim.Engine.create 2 in
  Dd_sim.Engine.run engine (Standard.bell ());
  let first = Dd_sim.Engine.measure_qubit engine ~qubit:0 in
  let second = Dd_sim.Engine.measure_qubit engine ~qubit:1 in
  check_bool "bell bits agree" true (first = second)

let test_probability_one () =
  let engine = Dd_sim.Engine.create 2 in
  Dd_sim.Engine.run engine (Standard.bell ());
  check_float "bell marginal" 0.5
    (Dd_sim.Engine.probability_one engine ~qubit:1)

let test_sample_deterministic_state () =
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.apply_gate engine (Gate.x 2);
  check_int "sampling a basis state" 4 (Dd_sim.Engine.sample engine)

let test_combine_equals_sequential () =
  let gates =
    [ Gate.h 0; Gate.cx 0 1; Gate.t_gate 1; Gate.cz 1 2; Gate.h 2 ]
  in
  let engine_a = Dd_sim.Engine.create 3 in
  List.iter (Dd_sim.Engine.apply_gate engine_a) gates;
  let engine_b = Dd_sim.Engine.create 3 in
  let product = Dd_sim.Engine.combine engine_b gates in
  Dd_sim.Engine.apply_matrix engine_b product;
  check_cnum_array "combined product equals gate-by-gate"
    (Dd.Vdd.to_array (Dd_sim.Engine.state engine_a) ~n:3)
    (Dd.Vdd.to_array (Dd_sim.Engine.state engine_b) ~n:3)

let test_combine_empty_is_identity () =
  let engine = Dd_sim.Engine.create 3 in
  let product = Dd_sim.Engine.combine engine [] in
  check_bool "empty product is the identity" true
    (Dd.Mdd.equal product (Dd.Mdd.identity (Dd_sim.Engine.context engine) 3))

let test_track_peaks () =
  (* with the fused fast path no gate DD is built, so matrix peaks stay 0;
     state peaks are tracked either way *)
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.set_track_peaks engine true;
  Dd_sim.Engine.run engine
    (Standard.random_circuit ~seed:8 ~qubits:4 ~gates:30 ());
  let stats = Dd_sim.Engine.stats engine in
  check_bool "peak state nodes recorded" true
    (stats.Dd_sim.Sim_stats.peak_state_nodes >= 1);
  check_int "fused run builds no gate DDs" 0
    stats.Dd_sim.Sim_stats.peak_matrix_nodes;
  let generic = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.set_fused_apply generic false;
  Dd_sim.Engine.set_track_peaks generic true;
  Dd_sim.Engine.run generic
    (Standard.random_circuit ~seed:8 ~qubits:4 ~gates:30 ());
  let gstats = Dd_sim.Engine.stats generic in
  check_bool "generic run records matrix peaks" true
    (gstats.Dd_sim.Sim_stats.peak_matrix_nodes >= 1)

let test_apply_matrix_direct () =
  (* DD-construct style: apply a permutation built directly *)
  let engine = Dd_sim.Engine.create 3 in
  let ctx = Dd_sim.Engine.context engine in
  let shift = Dd.Mdd.of_permutation ctx ~n:3 (fun x -> (x + 1) mod 8) in
  Dd_sim.Engine.apply_matrix engine shift;
  Dd_sim.Engine.apply_matrix engine shift;
  check_cnum "|0> shifted twice" Cnum.one (Dd_sim.Engine.amplitude engine 2)

(* the engine runs on one domain: 1 is accepted, every other count is a
   structured parameter error *)
let test_set_domains_accepts_only_one () =
  let engine = Dd_sim.Engine.create 2 in
  Dd_sim.Engine.set_domains engine 1;
  List.iter
    (fun d ->
      check_bool
        (Printf.sprintf "%d domains rejected" d)
        true
        (match Dd_sim.Engine.set_domains engine d with
        | exception Dd_sim.Error.Error (Dd_sim.Error.Invalid_parameter _) ->
          true
        | () -> false))
    [ 0; 2 ]

let suite =
  [
    Alcotest.test_case "initial_state" `Quick test_initial_state;
    Alcotest.test_case "apply_gate" `Quick test_apply_gate;
    Alcotest.test_case "run_matches_dense" `Quick test_run_matches_dense;
    Alcotest.test_case "sequential_stats" `Quick test_sequential_stats;
    Alcotest.test_case "reset" `Quick test_reset;
    Alcotest.test_case "run_width_mismatch" `Quick test_run_width_mismatch;
    Alcotest.test_case "set_state_validation" `Quick
      test_set_state_validation;
    Alcotest.test_case "measure_ghz_correlated" `Quick
      test_measure_ghz_correlated;
    Alcotest.test_case "measure_qubit_collapses" `Quick
      test_measure_qubit_collapses;
    Alcotest.test_case "probability_one" `Quick test_probability_one;
    Alcotest.test_case "sample_deterministic" `Quick
      test_sample_deterministic_state;
    Alcotest.test_case "combine_equals_sequential" `Quick
      test_combine_equals_sequential;
    Alcotest.test_case "combine_empty" `Quick test_combine_empty_is_identity;
    Alcotest.test_case "track_peaks" `Quick test_track_peaks;
    Alcotest.test_case "apply_matrix_direct" `Quick test_apply_matrix_direct;
    Alcotest.test_case "set_domains_accepts_only_one" `Quick
      test_set_domains_accepts_only_one;
  ]
