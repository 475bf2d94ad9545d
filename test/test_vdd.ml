open Dd_complex
open Util

let c = Cnum.make
let r = Cnum.of_float

let test_basis_amplitudes () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:3 5 in
  let dense = Dd.Vdd.to_array ctx e ~n:3 in
  Array.iteri
    (fun i amp ->
      check_cnum
        (Printf.sprintf "amplitude %d" i)
        (if i = 5 then Cnum.one else Cnum.zero)
        amp)
    dense

let test_basis_size_linear () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:10 123 in
  check_int "basis state has one node per qubit" 10 (Dd.Vdd.node_count e)

let test_roundtrip () =
  let ctx = fresh_ctx () in
  let v = [| c 0.5 0.; c 0. 0.5; c (-0.5) 0.; c 0. (-0.5) |] in
  check_cnum_array "of_array/to_array roundtrip" v
    (Dd.Vdd.to_array ctx (Dd.Vdd.of_array ctx v) ~n:2)

let test_roundtrip_with_zero_block () =
  let ctx = fresh_ctx () in
  let v = [| r 0.; r 0.; r 0.; r 0.; r 0.5; r 0.5; r 0.5; r 0.5 |] in
  let e = Dd.Vdd.of_array ctx v in
  check_cnum_array "zero block preserved" v (Dd.Vdd.to_array ctx e ~n:3);
  (* |1> (x) |++> needs one node per level only *)
  check_int "zero-stub vector is compact" 3 (Dd.Vdd.node_count e)

let test_amplitude_path () =
  let ctx = fresh_ctx () in
  let v = Array.init 8 (fun i -> r (float_of_int i /. 10.)) in
  let e = Dd.Vdd.of_array ctx v in
  for i = 0 to 7 do
    check_cnum
      (Printf.sprintf "amplitude %d" i)
      v.(i)
      (Dd.Vdd.amplitude ctx e ~n:3 i)
  done

let test_canonicity () =
  (* the paper's Fig. 2c example: [0; 0; 0; 0; 1/2; -1/2; 1/2; 1/2] built
     in two different ways must produce the identical edge *)
  let ctx = fresh_ctx () in
  let v =
    [| r 0.; r 0.; r 0.; r 0.; r 0.5; r (-0.5); r 0.5; r 0.5 |]
  in
  let e1 = Dd.Vdd.of_array ctx v in
  let half = Dd.Vdd.of_array ctx (Array.map (fun x -> Cnum.scale 0.5 x) v) in
  let e2 = Dd.Vdd.scale ctx (r 2.) half in
  check_bool "same vector, same canonical edge" true (Dd.Vdd.equal e1 e2)

let test_sharing () =
  (* equal sub-vectors are shared: |+>^n has n nodes, not 2^n - 1 *)
  let ctx = fresh_ctx () in
  let n = 8 in
  let amp = r (1. /. sqrt (float_of_int (1 lsl n))) in
  let v = Array.make (1 lsl n) amp in
  check_int "uniform superposition is linear-size" n
    (Dd.Vdd.node_count (Dd.Vdd.of_array ctx v))

let test_add_matches_dense () =
  let ctx = fresh_ctx () in
  let va = [| c 0.1 0.2; c 0.3 0.; c 0. (-0.4); c 0.5 0.5 |] in
  let vb = [| c 0.9 0.; c (-0.3) 0.1; c 0.2 0.; c 0. 0. |] in
  let expected = Array.init 4 (fun i -> Cnum.add va.(i) vb.(i)) in
  let sum = Dd.Vdd.add ctx (Dd.Vdd.of_array ctx va) (Dd.Vdd.of_array ctx vb) in
  check_cnum_array "DD addition matches dense" expected
    (Dd.Vdd.to_array ctx sum ~n:2)

let test_add_zero () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:4 7 in
  check_bool "x + 0 = x" true (Dd.Vdd.equal e (Dd.Vdd.add ctx e Dd.Vdd.zero));
  check_bool "0 + x = x" true (Dd.Vdd.equal e (Dd.Vdd.add ctx Dd.Vdd.zero e))

let test_add_commutative_canonical () =
  let ctx = fresh_ctx () in
  let a = Dd.Vdd.basis ctx ~n:3 1 in
  let b = Dd.Vdd.scale ctx (c 0. 1.) (Dd.Vdd.basis ctx ~n:3 6) in
  check_bool "a + b == b + a canonically" true
    (Dd.Vdd.equal (Dd.Vdd.add ctx a b) (Dd.Vdd.add ctx b a))

let test_add_cancellation () =
  let ctx = fresh_ctx () in
  let a = Dd.Vdd.basis ctx ~n:3 5 in
  let minus_a = Dd.Vdd.scale ctx (r (-1.)) a in
  check_bool "x + (-x) = 0" true
    (Dd.Types.v_is_zero (Dd.Vdd.add ctx a minus_a))

let test_scale_zero () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:2 3 in
  check_bool "0 * x = zero edge" true
    (Dd.Types.v_is_zero (Dd.Vdd.scale ctx Cnum.zero e))

let test_dot_orthonormal () =
  let ctx = fresh_ctx () in
  let a = Dd.Vdd.basis ctx ~n:3 2 and b = Dd.Vdd.basis ctx ~n:3 5 in
  check_cnum "<a|a> = 1" Cnum.one (Dd.Vdd.dot ctx a a);
  check_cnum "<a|b> = 0" Cnum.zero (Dd.Vdd.dot ctx a b)

let test_dot_conjugate_linear () =
  let ctx = fresh_ctx () in
  let a = Dd.Vdd.basis ctx ~n:2 1 in
  let ia = Dd.Vdd.scale ctx (c 0. 1.) a in
  check_cnum "<i a|a> = -i" (c 0. (-1.)) (Dd.Vdd.dot ctx ia a);
  check_cnum "<a|i a> = i" (c 0. 1.) (Dd.Vdd.dot ctx a ia)

let test_dot_matches_dense () =
  let ctx = fresh_ctx () in
  let va = [| c 0.1 0.2; c 0.3 0.; c 0. (-0.4); c 0.5 0.5 |] in
  let vb = [| c 0.9 0.; c (-0.3) 0.1; c 0.2 0.; c 0.1 0.7 |] in
  let expected = ref Cnum.zero in
  Array.iteri
    (fun i x -> expected := Cnum.add !expected (Cnum.mul (Cnum.conj x) vb.(i)))
    va;
  check_cnum "inner product matches dense" !expected
    (Dd.Vdd.dot ctx (Dd.Vdd.of_array ctx va) (Dd.Vdd.of_array ctx vb))

let test_of_array_bad_length () =
  let ctx = fresh_ctx () in
  Alcotest.check_raises "length 3 rejected"
    (Invalid_argument "Vdd.of_array: length must be a positive power of two")
    (fun () -> ignore (Dd.Vdd.of_array ctx [| r 1.; r 0.; r 0. |]))

let test_normalized_child_weight () =
  (* after normalisation the larger-magnitude child weight is exactly 1 *)
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.of_array ctx [| r 0.25; r 0.75 |] in
  let node = e.Dd.Types.vt in
  let larger = node.Dd.Types.hw in
  check_bool "pivot child weight is exactly one" true
    (larger = Ctable.one_tag);
  check_cnum "edge weight carries the factor" (r 0.75)
    (Ctable.get ctx.Dd.Context.ctable e.Dd.Types.vw)

(* Hash-consing a node that exists allocates only the returned edge, 3
   words: no children array, no child edges, and nothing for the weight
   arithmetic. *)
let test_make_existing_node_allocation () =
  let ctx = fresh_ctx () in
  let low = Dd.Vdd.terminal (Dd.Context.cnum ctx (r 0.6)) in
  let high = Dd.Vdd.terminal (Dd.Context.cnum ctx (c 0. 0.8)) in
  ignore (Dd.Vdd.make ctx 0 low high);
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Dd.Vdd.make ctx 0 low high))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  check_bool
    (Printf.sprintf "Vdd.make on an existing node allocated %.1f words" words)
    true (words <= 3.)

(* A vector node is one block: id, level and two inline (weight tag,
   target) child pairs — 6 fields, 7 words with the header. *)
let test_node_layout () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:3 5 in
  check_int "vector node fields" 6 (Obj.size (Obj.repr e.Dd.Types.vt));
  check_int "vector edge fields" 2 (Obj.size (Obj.repr e))

let test_unique_table_hit () =
  let ctx = fresh_ctx () in
  let before = Dd.Context.v_unique_size ctx in
  let e1 = Dd.Vdd.basis ctx ~n:5 9 in
  let mid = Dd.Context.v_unique_size ctx in
  let e2 = Dd.Vdd.basis ctx ~n:5 9 in
  let after = Dd.Context.v_unique_size ctx in
  check_bool "same state" true (Dd.Vdd.equal e1 e2);
  check_bool "first build creates nodes" true (mid > before);
  check_int "second build reuses every node" mid after

let suite =
  [
    Alcotest.test_case "basis_amplitudes" `Quick test_basis_amplitudes;
    Alcotest.test_case "basis_size_linear" `Quick test_basis_size_linear;
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "roundtrip_zero_block" `Quick
      test_roundtrip_with_zero_block;
    Alcotest.test_case "amplitude_path" `Quick test_amplitude_path;
    Alcotest.test_case "canonicity" `Quick test_canonicity;
    Alcotest.test_case "sharing" `Quick test_sharing;
    Alcotest.test_case "add_matches_dense" `Quick test_add_matches_dense;
    Alcotest.test_case "add_zero" `Quick test_add_zero;
    Alcotest.test_case "add_commutative" `Quick test_add_commutative_canonical;
    Alcotest.test_case "add_cancellation" `Quick test_add_cancellation;
    Alcotest.test_case "scale_zero" `Quick test_scale_zero;
    Alcotest.test_case "dot_orthonormal" `Quick test_dot_orthonormal;
    Alcotest.test_case "dot_conjugate_linear" `Quick
      test_dot_conjugate_linear;
    Alcotest.test_case "dot_matches_dense" `Quick test_dot_matches_dense;
    Alcotest.test_case "of_array_bad_length" `Quick test_of_array_bad_length;
    Alcotest.test_case "normalized_child_weight" `Quick
      test_normalized_child_weight;
    Alcotest.test_case "unique_table_hit" `Quick test_unique_table_hit;
    Alcotest.test_case "make_existing_node_allocation" `Quick
      test_make_existing_node_allocation;
    Alcotest.test_case "node_layout" `Quick test_node_layout;
  ]
