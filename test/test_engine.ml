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

(* A state's weight tags and nodes mean something only in the context
   that made them: engine B refuses engine A's state and keeps its own,
   and still takes states of its own context, directly or through a
   checkpoint. *)
let test_set_state_refuses_foreign_state () =
  let circuit = Standard.random_circuit ~seed:3 ~qubits:5 ~gates:24 () in
  let a = Dd_sim.Engine.create 5 and b = Dd_sim.Engine.create 5 in
  Dd_sim.Engine.run a circuit;
  let own = Dd_sim.Engine.state b in
  check_bool "foreign state refused" true
    (match Dd_sim.Engine.set_state b (Dd_sim.Engine.state a) with
    | () -> false
    | exception
        Dd_sim.Error.Error
          (Dd_sim.Error.Invalid_parameter { what = "Engine.set_state"; _ }) ->
      true);
  check_bool "B keeps its state" true
    (Dd.Vdd.equal own (Dd_sim.Engine.state b));
  let ctx_b = Dd_sim.Engine.context b in
  let basis = Dd.Vdd.basis ctx_b ~n:5 19 in
  Dd_sim.Engine.set_state b basis;
  check_cnum "B takes its own basis state" Cnum.one
    (Dd_sim.Engine.amplitude b 19);
  let text =
    Dd_sim.Checkpoint.to_string
      (Dd_sim.Checkpoint.snapshot a ~strategy:Dd_sim.Strategy.Sequential
         ~gate_index:24)
  in
  let gate_index =
    Dd_sim.Checkpoint.restore b (Dd_sim.Checkpoint.of_string ctx_b text)
  in
  check_int "restored at the end of the circuit" 24 gate_index;
  check_cnum_array "restore installs A's amplitudes"
    (Dd.Vdd.to_array (Dd_sim.Engine.context a) (Dd_sim.Engine.state a) ~n:5)
    (Dd.Vdd.to_array ctx_b (Dd_sim.Engine.state b) ~n:5)

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

(* Mid-circuit measurement with classical feedback: measure qubit 2, flip
   qubit 4 on outcome 1, keep simulating.  The dense mirror projects onto
   the engine's outcome and renormalises, so the two must agree whatever
   the outcome, under either strategy for the second segment. *)
let test_measure_then_run_matches_dense () =
  let n = 6 and qubit = 2 and feedback = Gate.x 4 in
  let outcomes = ref [] in
  List.iter
    (fun seed ->
      let first = Standard.random_circuit ~seed ~qubits:n ~gates:30 () in
      let second =
        Standard.random_circuit ~seed:(seed + 100) ~qubits:n ~gates:30 ()
      in
      List.iter
        (fun (label, strategy) ->
          let engine = Dd_sim.Engine.create ~seed n in
          Dd_sim.Engine.run engine first;
          let outcome = Dd_sim.Engine.measure_qubit engine ~qubit in
          if outcome then Dd_sim.Engine.apply_gate engine feedback;
          Dd_sim.Engine.run ~strategy engine second;
          outcomes := outcome :: !outcomes;
          let dense = Dense_state.create n in
          Dense_state.run dense first;
          let p1 = Dense_state.probability_one dense ~qubit in
          let p = if outcome then p1 else 1. -. p1 in
          let keep i = (i lsr qubit) land 1 = Bool.to_int outcome in
          let dense =
            Dense_state.of_amplitudes
              (Array.mapi
                 (fun i a ->
                   if keep i then Cnum.scale (1. /. sqrt p) a else Cnum.zero)
                 (Dense_state.to_array dense))
          in
          if outcome then Dense_state.apply_gate dense feedback;
          Dense_state.run dense second;
          let fidelity =
            Dd_sim.Engine.fidelity_dense engine (Dense_state.to_array dense)
          in
          check_bool
            (Printf.sprintf "seed %d, %s, outcome %b: fidelity %.12f" seed
               label outcome fidelity)
            true
            (fidelity >= 1. -. 1e-9))
        [
          ("seq", Dd_sim.Strategy.Sequential);
          ("k:4", Dd_sim.Strategy.K_operations 4);
        ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  check_bool "outcome 0 occurs" true (List.mem false !outcomes);
  check_bool "outcome 1 occurs" true (List.mem true !outcomes)

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
    (state_array engine_a ~n:3)
    (state_array engine_b ~n:3)

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
    Alcotest.test_case "run_width_mismatch" `Quick test_run_width_mismatch;
    Alcotest.test_case "set_state_validation" `Quick
      test_set_state_validation;
    Alcotest.test_case "set_state_refuses_foreign_state" `Quick
      test_set_state_refuses_foreign_state;
    Alcotest.test_case "measure_ghz_correlated" `Quick
      test_measure_ghz_correlated;
    Alcotest.test_case "measure_qubit_collapses" `Quick
      test_measure_qubit_collapses;
    Alcotest.test_case "measure_then_run_matches_dense" `Quick
      test_measure_then_run_matches_dense;
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
