open Util

let test_vector_roundtrip_same_context () =
  let ctx = fresh_ctx () in
  let circuit = Standard.random_circuit ~seed:8 ~qubits:5 ~gates:30 () in
  let engine = Dd_sim.Engine.create ~context:ctx 5 in
  Dd_sim.Engine.run engine circuit;
  let original = Dd_sim.Engine.state engine in
  let text = Dd.Serialize.vector_to_string ctx original in
  let reloaded = Dd.Serialize.vector_of_string ctx text in
  check_bool "round trip is canonical within one context" true
    (Dd.Vdd.equal original reloaded)

let test_vector_roundtrip_fresh_context () =
  let ctx1 = fresh_ctx () and ctx2 = fresh_ctx () in
  let circuit = Standard.random_circuit ~seed:9 ~qubits:4 ~gates:25 () in
  let engine = Dd_sim.Engine.create ~context:ctx1 4 in
  Dd_sim.Engine.run engine circuit;
  let original = Dd_sim.Engine.state engine in
  let text = Dd.Serialize.vector_to_string ctx1 original in
  let reloaded = Dd.Serialize.vector_of_string ctx2 text in
  check_cnum_array "same amplitudes in a different context"
    (Dd.Vdd.to_array ctx1 original ~n:4)
    (Dd.Vdd.to_array ctx2 reloaded ~n:4)

let test_vector_zero_stubs_preserved () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:6 37 in
  let reloaded =
    Dd.Serialize.vector_of_string ctx (Dd.Serialize.vector_to_string ctx e)
  in
  check_bool "basis state survives" true (Dd.Vdd.equal e reloaded)

let test_matrix_roundtrip () =
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx 4 in
  let product =
    Dd_sim.Engine.combine engine
      (Circuit.flatten (Standard.random_circuit ~seed:5 ~qubits:4 ~gates:15 ()))
  in
  let text = Dd.Serialize.matrix_to_string ctx product in
  let reloaded = Dd.Serialize.matrix_of_string ctx text in
  check_bool "matrix round trip" true (Dd.Mdd.equal product reloaded)

let test_matrix_roundtrip_oracle () =
  (* the DD-construct use case: cache a modular-multiplication oracle *)
  let ctx1 = fresh_ctx () and ctx2 = fresh_ctx () in
  let f x = if x < 13 then x * 6 mod 13 else x in
  let oracle = Dd.Mdd.of_permutation ctx1 ~n:4 f in
  let text = Dd.Serialize.matrix_to_string ctx1 oracle in
  let reloaded = Dd.Serialize.matrix_of_string ctx2 text in
  let expected = Dd.Mdd.to_dense ctx1 oracle ~n:4 in
  let actual = Dd.Mdd.to_dense ctx2 reloaded ~n:4 in
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c v -> check_cnum (Printf.sprintf "entry %d %d" r c) v actual.(r).(c))
        row)
    expected

let test_vector_roundtrip_under_order () =
  (* serialization is purely structural (level-indexed); a state built
     under a non-identity order must reload bit-identically, and its
     qubit-space amplitudes are recovered by pairing the reloaded
     structure with the same order *)
  let ctx1 = fresh_ctx () and ctx2 = fresh_ctx () in
  let circuit = Standard.random_circuit ~seed:21 ~qubits:5 ~gates:30 () in
  let engine = Dd_sim.Engine.create ~context:ctx1 5 in
  Dd_sim.Engine.run engine circuit;
  let qubit_space = state_array engine ~n:5 in
  let order = Dd.Order.of_qubit_of_level [| 4; 2; 0; 3; 1 |] in
  let original, _ =
    Dd.Reorder.apply_order ctx1 (Dd_sim.Engine.state engine) order
  in
  let text = Dd.Serialize.vector_to_string ctx1 original in
  let same_ctx = Dd.Serialize.vector_of_string ctx1 text in
  check_bool "round trip is canonical under a non-identity order" true
    (Dd.Vdd.equal original same_ctx);
  let reloaded = Dd.Serialize.vector_of_string ctx2 text in
  check_cnum_array
    "reloaded structure + the same order = the original qubit amplitudes"
    qubit_space
    (Dd.Vdd.to_array ~order ctx2 reloaded ~n:5)

let test_malformed_rejected () =
  let ctx = fresh_ctx () in
  check_bool "garbage rejected" true
    (try
       ignore (Dd.Serialize.vector_of_string ctx "nonsense 1 2 3\n");
       false
     with Dd.Dd_error.Error (Dd.Dd_error.Malformed_dd _) -> true);
  check_bool "missing root rejected" true
    (try
       ignore (Dd.Serialize.vector_of_string ctx "ddvec 0\n");
       false
     with Dd.Dd_error.Error (Dd.Dd_error.Malformed_dd _) -> true)

let test_file_helpers () =
  let path = Filename.temp_file "ddsim" ".dd" in
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:3 5 in
  Dd.Serialize.write_file path (Dd.Serialize.vector_to_string ctx e);
  let reloaded = Dd.Serialize.vector_of_string ctx (Dd.Serialize.read_file path) in
  Sys.remove path;
  check_bool "file round trip" true (Dd.Vdd.equal e reloaded)

let suite =
  [
    Alcotest.test_case "vector_same_context" `Quick
      test_vector_roundtrip_same_context;
    Alcotest.test_case "vector_fresh_context" `Quick
      test_vector_roundtrip_fresh_context;
    Alcotest.test_case "vector_zero_stubs" `Quick
      test_vector_zero_stubs_preserved;
    Alcotest.test_case "matrix_roundtrip" `Quick test_matrix_roundtrip;
    Alcotest.test_case "matrix_oracle" `Quick test_matrix_roundtrip_oracle;
    Alcotest.test_case "vector_roundtrip_under_order" `Quick
      test_vector_roundtrip_under_order;
    Alcotest.test_case "malformed_rejected" `Quick test_malformed_rejected;
    Alcotest.test_case "file_helpers" `Quick test_file_helpers;
  ]
