open Util

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub text i m = sub || loop (i + 1)) in
  loop 0

let test_vector_dot_structure () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:3 5 in
  let dot = Dd.Dot.vector_to_dot ctx e in
  check_bool "digraph header" true (contains_sub dot "digraph vector_dd");
  check_bool "terminal node" true (contains_sub dot "terminal");
  check_bool "level labels" true (contains_sub dot "label=\"q2\"");
  check_bool "root edge" true (contains_sub dot "root ->")

let test_vector_dot_zero_stubs () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:2 2 in
  let dot = Dd.Dot.vector_to_dot ctx e in
  (* a basis state has one zero stub per level *)
  check_bool "zero stubs drawn as points" true
    (contains_sub dot "zero1 [shape=point]")

let test_vector_dot_weights () =
  let ctx = fresh_ctx () in
  let e =
    Dd.Vdd.of_array ctx
      [| Dd_complex.Cnum.of_float 0.8; Dd_complex.Cnum.of_float 0.6 |]
  in
  let dot = Dd.Dot.vector_to_dot ctx e in
  check_bool "non-unit weight labelled" true (contains_sub dot "0.75");
  check_bool "weight-one edges unlabelled" false
    (contains_sub dot "label=\"1+0i\"")

let test_matrix_dot_structure () =
  let ctx = fresh_ctx () in
  let dd = Dd.Mdd.gate ctx ~n:2 ~target:0 (Gate.matrix Gate.H) in
  let dot = Dd.Dot.matrix_to_dot ~name:"hgate" ctx dd in
  check_bool "custom name" true (contains_sub dot "digraph hgate");
  check_bool "quadrant labels" true (contains_sub dot "label=\"01");
  check_bool "terminal present" true (contains_sub dot "terminal")

let test_dot_parses_as_graphviz_shape () =
  (* cheap structural sanity: balanced braces, one per line block *)
  let ctx = fresh_ctx () in
  let dot = Dd.Dot.vector_to_dot ctx (Dd.Vdd.basis ctx ~n:4 9) in
  let opens =
    String.fold_left (fun acc c -> if c = '{' then acc + 1 else acc) 0 dot
  in
  let closes =
    String.fold_left (fun acc c -> if c = '}' then acc + 1 else acc) 0 dot
  in
  check_int "balanced braces" opens closes;
  check_bool "ends with newline" true (dot.[String.length dot - 1] = '\n')

let test_vector_dot_annotated () =
  let ctx = fresh_ctx () in
  let e =
    Dd.Vdd.of_array ctx
      [| Dd_complex.Cnum.of_float 0.8; Dd_complex.Cnum.of_float 0.6 |]
  in
  let dot = Dd.Dot.vector_to_dot ~annotate:true ctx e in
  (* every non-zero edge gets a magnitude + log2-bucket annotation *)
  check_bool "magnitude label" true (contains_sub dot "|w|=0.75");
  check_bool "log2 bucket label" true (contains_sub dot "(2^0)");
  (* nodes are grouped into rank=same rows with a level label *)
  check_bool "rank row" true (contains_sub dot "{ rank=same; level0;");
  check_bool "level caption names the hosted qubit" true
    (contains_sub dot "label=\"level 0 (qubit 0)\"");
  (* annotation also labels weight-one edges, unlike the plain export *)
  let plain = Dd.Dot.vector_to_dot ctx e in
  check_bool "plain export unchanged: no magnitudes" false
    (contains_sub plain "|w|=");
  check_bool "plain export unchanged: no rank rows" false
    (contains_sub plain "rank=same")

let test_matrix_dot_annotated () =
  let ctx = fresh_ctx () in
  let dd = Dd.Mdd.gate ctx ~n:2 ~target:0 (Gate.matrix Gate.H) in
  let dot = Dd.Dot.matrix_to_dot ~annotate:true ctx dd in
  (* the Hadamard quadrant weights have magnitude 1/sqrt(2) ~ 0.7071 *)
  check_bool "quadrant magnitude label" true (contains_sub dot "|w|=0.7071");
  check_bool "hadamard bucket" true (contains_sub dot "(2^0)");
  check_bool "rank rows per level" true (contains_sub dot "rank=same");
  check_bool "quadrants keep their labels" true (contains_sub dot "label=\"01")

let test_annotated_dot_braces_balanced () =
  let ctx = fresh_ctx () in
  let dot = Dd.Dot.vector_to_dot ~annotate:true ctx (Dd.Vdd.basis ctx ~n:4 9) in
  let count c0 =
    String.fold_left (fun acc c -> if c = c0 then acc + 1 else acc) 0 dot
  in
  check_int "balanced braces" (count '{') (count '}')

let suite =
  [
    Alcotest.test_case "vector_structure" `Quick test_vector_dot_structure;
    Alcotest.test_case "vector_zero_stubs" `Quick test_vector_dot_zero_stubs;
    Alcotest.test_case "vector_weights" `Quick test_vector_dot_weights;
    Alcotest.test_case "matrix_structure" `Quick test_matrix_dot_structure;
    Alcotest.test_case "graphviz_shape" `Quick
      test_dot_parses_as_graphviz_shape;
    Alcotest.test_case "vector_annotated" `Quick test_vector_dot_annotated;
    Alcotest.test_case "matrix_annotated" `Quick test_matrix_dot_annotated;
    Alcotest.test_case "annotated_braces" `Quick
      test_annotated_dot_braces_balanced;
  ]
