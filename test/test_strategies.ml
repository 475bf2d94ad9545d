open Util

(* The heart of the paper: every combination strategy must produce exactly
   the same final state as the sequential baseline — matrix multiplication
   is associative (Eq. 1 vs Eq. 2) — while trading matrix-vector for
   matrix-matrix multiplications. *)

let strategies =
  [
    Dd_sim.Strategy.Sequential;
    Dd_sim.Strategy.K_operations 1;
    Dd_sim.Strategy.K_operations 2;
    Dd_sim.Strategy.K_operations 3;
    Dd_sim.Strategy.K_operations 8;
    Dd_sim.Strategy.K_operations 1000;
    Dd_sim.Strategy.Max_size 1;
    Dd_sim.Strategy.Max_size 16;
    Dd_sim.Strategy.Max_size 4096;
  ]

let run_with strategy circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run ~strategy engine circuit;
  engine

let test_all_strategies_agree () =
  List.iter
    (fun seed ->
      let circuit = Standard.random_circuit ~seed ~qubits:5 ~gates:40 () in
      let reference = dense_state_of_circuit circuit in
      List.iter
        (fun strategy ->
          let engine = run_with strategy circuit in
          check_float
            (Printf.sprintf "seed %d, strategy %s" seed
               (Dd_sim.Strategy.to_string strategy))
            1.
            (Dd_sim.Engine.fidelity_dense engine reference))
        strategies)
    [ 100; 200 ]

let test_strategies_agree_canonically () =
  (* not just numerically equal: the canonical DD edges must coincide *)
  let circuit = Standard.random_circuit ~seed:77 ~qubits:5 ~gates:30 () in
  let ctx = fresh_ctx () in
  let run strategy =
    let engine = Dd_sim.Engine.create ~context:ctx 5 in
    Dd_sim.Engine.run ~strategy engine circuit;
    Dd_sim.Engine.state engine
  in
  let reference = run Dd_sim.Strategy.Sequential in
  List.iter
    (fun strategy ->
      check_bool
        ("canonical equality for " ^ Dd_sim.Strategy.to_string strategy)
        true
        (Dd.Vdd.equal reference (run strategy)))
    [ Dd_sim.Strategy.K_operations 4; Dd_sim.Strategy.Max_size 64 ]

let test_k_operations_counts () =
  let gates = 24 and k = 4 in
  let circuit = Standard.random_circuit ~seed:9 ~qubits:4 ~gates () in
  let engine = run_with (Dd_sim.Strategy.K_operations k) circuit in
  let stats = Dd_sim.Engine.stats engine in
  check_int "mat-vec count is gates/k" (gates / k)
    stats.Dd_sim.Sim_stats.mat_vec_mults;
  check_int "mat-mat count is gates - gates/k" (gates - (gates / k))
    stats.Dd_sim.Sim_stats.mat_mat_mults

let test_k_operations_remainder_flushed () =
  let circuit = Standard.random_circuit ~seed:9 ~qubits:4 ~gates:10 () in
  let engine = run_with (Dd_sim.Strategy.K_operations 4) circuit in
  let stats = Dd_sim.Engine.stats engine in
  (* 10 gates with k=4: windows of 4, 4, 2 -> 3 applications *)
  check_int "trailing partial window applied" 3
    stats.Dd_sim.Sim_stats.mat_vec_mults

let test_k1_equals_sequential_counts () =
  let circuit = Standard.random_circuit ~seed:4 ~qubits:4 ~gates:15 () in
  let engine = run_with (Dd_sim.Strategy.K_operations 1) circuit in
  let stats = Dd_sim.Engine.stats engine in
  check_int "k=1 does one mat-vec per gate" 15
    stats.Dd_sim.Sim_stats.mat_vec_mults;
  check_int "k=1 does no mat-mat" 0 stats.Dd_sim.Sim_stats.mat_mat_mults

let test_max_size_combines () =
  let circuit = Standard.random_circuit ~seed:6 ~qubits:5 ~gates:40 () in
  let engine = run_with (Dd_sim.Strategy.Max_size 4096) circuit in
  let stats = Dd_sim.Engine.stats engine in
  check_bool "a generous bound combines down to few applications" true
    (stats.Dd_sim.Sim_stats.mat_vec_mults
     < stats.Dd_sim.Sim_stats.gates_seen);
  check_bool "mat-mat multiplications happened" true
    (stats.Dd_sim.Sim_stats.mat_mat_mults > 0)

let test_max_size_tiny_bound_is_sequentialish () =
  let circuit = Standard.random_circuit ~seed:6 ~qubits:5 ~gates:40 () in
  let engine = run_with (Dd_sim.Strategy.Max_size 1) circuit in
  let stats = Dd_sim.Engine.stats engine in
  (* every single-gate DD already exceeds one node, so no combination *)
  check_int "bound 1 applies every gate individually" 40
    stats.Dd_sim.Sim_stats.mat_vec_mults

let test_use_repeating_agrees () =
  let circuit = Grover.circuit ~n:7 ~marked:5 () in
  let plain = run_with Dd_sim.Strategy.Sequential circuit in
  let repeating = Dd_sim.Engine.create 7 in
  Dd_sim.Engine.run ~use_repeating:true repeating circuit;
  check_cnum_array "DD-repeating result equals sequential"
    (state_array plain ~n:7)
    (state_array repeating ~n:7)

let test_use_repeating_reduces_matvecs () =
  let circuit = Grover.circuit ~n:7 ~marked:3 () in
  let plain = run_with Dd_sim.Strategy.Sequential circuit in
  let repeating = Dd_sim.Engine.create 7 in
  Dd_sim.Engine.run ~use_repeating:true repeating circuit;
  let p = Dd_sim.Engine.stats plain and r = Dd_sim.Engine.stats repeating in
  check_bool "one mat-vec per iteration instead of per gate" true
    (r.Dd_sim.Sim_stats.mat_vec_mults < p.Dd_sim.Sim_stats.mat_vec_mults / 4)

let test_repeating_combines_once () =
  let circuit =
    Circuit.create ~qubits:3
      [
        Circuit.repeat 10
          [ Circuit.gate (Gate.h 0); Circuit.gate (Gate.cx 0 1) ];
      ]
  in
  let engine = Dd_sim.Engine.create 3 in
  let ledger = Obs.Ledger.create () in
  Dd_sim.Engine.set_ledger engine ledger;
  Dd_sim.Engine.run ~use_repeating:true engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  (* body of 2 gates -> 1 mat-mat, then 10 mat-vec applications *)
  check_int "mat-mat once" 1 stats.Dd_sim.Sim_stats.mat_mat_mults;
  check_int "mat-vec per repetition" 10 stats.Dd_sim.Sim_stats.mat_vec_mults;
  (* every applied repetition counts its gates, as without repeating *)
  check_int "gates seen per repetition" 20 stats.Dd_sim.Sim_stats.gates_seen;
  check_int "ledger attributes every gate seen"
    stats.Dd_sim.Sim_stats.gates_seen
    (List.fold_left
       (fun acc (e : Obs.Ledger.entry) -> acc + e.gates)
       0 (Obs.Ledger.entries ledger))

let test_strategy_parsing () =
  let roundtrip s = Dd_sim.Strategy.(of_string (to_string s)) in
  check_bool "seq" true (roundtrip Dd_sim.Strategy.Sequential = Ok Dd_sim.Strategy.Sequential);
  check_bool "k" true
    (roundtrip (Dd_sim.Strategy.K_operations 7)
    = Ok (Dd_sim.Strategy.K_operations 7));
  check_bool "size" true
    (roundtrip (Dd_sim.Strategy.Max_size 99)
    = Ok (Dd_sim.Strategy.Max_size 99));
  check_bool "garbage rejected" true
    (match Dd_sim.Strategy.of_string "bogus" with
    | Error _ -> true
    | Ok _ -> false);
  check_bool "k:0 rejected" true
    (match Dd_sim.Strategy.of_string "k:0" with
    | Error _ -> true
    | Ok _ -> false)

let test_strategy_roundtrip_all () =
  List.iter
    (fun strategy ->
      check_bool
        ("round-trip " ^ Dd_sim.Strategy.to_string strategy)
        true
        (Dd_sim.Strategy.(of_string (to_string strategy)) = Ok strategy))
    strategies

let test_degenerate_strategy_strings_rejected () =
  let rejected_with input expected =
    match Dd_sim.Strategy.of_string input with
    | Ok _ -> Alcotest.fail (input ^ " was accepted")
    | Error message ->
      Alcotest.(check string) (input ^ " message") expected message
  in
  rejected_with "k:0" "k must be >= 1 (got 0)";
  rejected_with "size:-5" "size must be >= 1 (got -5)";
  rejected_with "k:99999999999999999999"
    "k parameter \"99999999999999999999\" is not a representable integer";
  rejected_with "size:1e3"
    "size parameter \"1e3\" is not a representable integer";
  rejected_with "k:" "cannot parse strategy \"k:\" (expected seq, k:N or size:N)"

let test_invalid_strategy_rejected () =
  let engine = Dd_sim.Engine.create 2 in
  Alcotest.check_raises "k=0"
    (Dd_sim.Error.Error
       (Dd_sim.Error.Invalid_parameter
          { what = "Strategy"; message = "k must be >= 1 (got 0)" }))
    (fun () ->
      Dd_sim.Engine.run
        ~strategy:(Dd_sim.Strategy.K_operations 0)
        engine (Standard.bell ()))

let suite =
  [
    Alcotest.test_case "all_strategies_agree" `Quick
      test_all_strategies_agree;
    Alcotest.test_case "canonical_agreement" `Quick
      test_strategies_agree_canonically;
    Alcotest.test_case "k_operations_counts" `Quick test_k_operations_counts;
    Alcotest.test_case "k_remainder_flushed" `Quick
      test_k_operations_remainder_flushed;
    Alcotest.test_case "k1_equals_sequential" `Quick
      test_k1_equals_sequential_counts;
    Alcotest.test_case "max_size_combines" `Quick test_max_size_combines;
    Alcotest.test_case "max_size_tiny_bound" `Quick
      test_max_size_tiny_bound_is_sequentialish;
    Alcotest.test_case "use_repeating_agrees" `Quick
      test_use_repeating_agrees;
    Alcotest.test_case "repeating_reduces_matvecs" `Quick
      test_use_repeating_reduces_matvecs;
    Alcotest.test_case "repeating_combines_once" `Quick
      test_repeating_combines_once;
    Alcotest.test_case "strategy_parsing" `Quick test_strategy_parsing;
    Alcotest.test_case "strategy_roundtrip_all" `Quick
      test_strategy_roundtrip_all;
    Alcotest.test_case "degenerate_strategy_strings" `Quick
      test_degenerate_strategy_strings_rejected;
    Alcotest.test_case "invalid_strategy" `Quick
      test_invalid_strategy_rejected;
  ]
