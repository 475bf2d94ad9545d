(* GF(2) algebra, Simon's algorithm and quantum counting. *)

open Util

(* --- GF(2) ----------------------------------------------------------- *)

let test_gf2_dot () =
  check_bool "parity of 0b101 . 0b100" true (Gf2.dot 0b101 0b100);
  check_bool "parity of 0b101 . 0b101" false (Gf2.dot 0b101 0b101);
  check_bool "zero vector" false (Gf2.dot 0 0b111)

let test_gf2_rank () =
  let system = Gf2.create 4 in
  check_bool "first insert independent" true (Gf2.add_equation system 0b1010);
  check_bool "second insert independent" true (Gf2.add_equation system 0b0110);
  check_bool "xor of both is dependent" false
    (Gf2.add_equation system 0b1100);
  check_int "rank 2" 2 (Gf2.rank system)

let test_gf2_zero_rejected () =
  let system = Gf2.create 3 in
  check_bool "zero vector is dependent" false (Gf2.add_equation system 0)

let test_gf2_nullspace () =
  (* s = 0b101; equations orthogonal to s *)
  let system = Gf2.create 3 in
  ignore (Gf2.add_equation system 0b010);
  ignore (Gf2.add_equation system 0b111);
  (* rank 2 over 3 bits -> unique nullspace direction *)
  match Gf2.nullspace_vector system with
  | Some s ->
    check_int "recovered s" 0b101 s
  | None -> Alcotest.fail "expected a nullspace vector"

let test_gf2_nullspace_underdetermined () =
  let system = Gf2.create 4 in
  ignore (Gf2.add_equation system 0b0001);
  check_bool "too few equations" true (Gf2.nullspace_vector system = None)

let test_gf2_random_consistency () =
  (* for random full chains: every returned nullspace vector is orthogonal
     to all inserted equations *)
  let rng = Random.State.make [| 3 |] in
  for _ = 1 to 20 do
    let n = 2 + Random.State.int rng 8 in
    let s = 1 + Random.State.int rng ((1 lsl n) - 1) in
    let system = Gf2.create n in
    let guard = ref 0 in
    while Gf2.rank system < n - 1 && !guard < 1000 do
      incr guard;
      let v = Random.State.int rng (1 lsl n) in
      if not (Gf2.dot v s) then ignore (Gf2.add_equation system v)
    done;
    match Gf2.nullspace_vector system with
    | Some found -> check_int "recovers the planted s" s found
    | None -> Alcotest.fail "no solution found"
  done

(* --- Simon ----------------------------------------------------------- *)

let test_simon_canonical_function () =
  let f = Simon.canonical_function ~n:4 ~s:0b0110 in
  for x = 0 to 15 do
    check_int
      (Printf.sprintf "two-to-one at %d" x)
      (f x)
      (f (x lxor 0b0110))
  done

let test_simon_oracle_xors () =
  let ctx = fresh_ctx () in
  let n = 3 in
  let f x = (x * 3) land 7 in
  let oracle = Simon.oracle_dd ctx ~n f in
  (* check a few basis-state mappings: |x>|y> -> |x>|y xor f x> *)
  List.iter
    (fun (x, y) ->
      let input = x lor (y lsl n) in
      let expected = x lor ((y lxor f x) lsl n) in
      check_cnum
        (Printf.sprintf "oracle on x=%d y=%d" x y)
        Dd_complex.Cnum.one
        (Dd.Mdd.entry ctx oracle ~n:(2 * n) ~row:expected ~col:input))
    [ (0, 0); (3, 5); (7, 7); (2, 1) ]

let test_simon_recovers_period () =
  List.iter
    (fun (n, s) ->
      let f = Simon.canonical_function ~n ~s in
      check_bool
        (Printf.sprintf "simon n=%d s=%d" n s)
        true
        (Simon.recover_period ~n f = Some s))
    [ (2, 1); (2, 3); (3, 5); (4, 9); (5, 21); (6, 42) ]

let test_simon_single_bit () =
  check_bool "n=1 periodic" true
    (Simon.recover_period ~n:1 (fun _ -> 0) = Some 1);
  check_bool "n=1 injective has no period" true
    (Simon.recover_period ~n:1 (fun x -> x) = None)

(* --- Quantum counting ------------------------------------------------ *)

let close_to expected actual slack = abs_float (expected -. actual) <= slack

let test_counting_zero_marked () =
  let result = Counting.estimate ~precision:6 ~n:4 ~marked:[] () in
  check_bool "no marked items -> count 0" true
    (close_to 0. result.Counting.estimated_count 0.2)

let test_counting_single_marked () =
  let result = Counting.estimate ~precision:6 ~n:4 ~marked:[ 11 ] () in
  check_bool
    (Printf.sprintf "one marked item (got %.3f)"
       result.Counting.estimated_count)
    true
    (close_to 1. result.Counting.estimated_count 0.6)

let test_counting_quarter_marked () =
  let result =
    Counting.estimate ~precision:7 ~n:4 ~marked:[ 1; 5; 9; 13 ] ()
  in
  check_bool
    (Printf.sprintf "four marked items (got %.3f)"
       result.Counting.estimated_count)
    true
    (close_to 4. result.Counting.estimated_count 0.8)

let test_counting_scales () =
  let result =
    Counting.estimate ~precision:7 ~n:5 ~marked:(List.init 8 (fun i -> 4 * i)) ()
  in
  check_bool
    (Printf.sprintf "eight of thirty-two (got %.3f)"
       result.Counting.estimated_count)
    true
    (close_to 8. result.Counting.estimated_count 1.5)

let test_counting_validates () =
  Alcotest.check_raises "duplicate marked"
    (Invalid_argument "Counting: duplicate marked element") (fun () ->
      ignore (Counting.estimate ~precision:4 ~n:3 ~marked:[ 1; 1 ] ()))

let test_grover_operator_unitary () =
  let engine = Dd_sim.Engine.create 4 in
  let ctx = Dd_sim.Engine.context engine in
  let g = Counting.grover_operator engine ~marked:[ 2; 7 ] in
  check_bool "G is unitary" true
    (Dd.Mdd.equal (Dd.Mdd.identity ctx 4)
       (Dd.Mdd.mul ctx (Dd.Mdd.adjoint ctx g) g))

let suite =
  [
    Alcotest.test_case "gf2_dot" `Quick test_gf2_dot;
    Alcotest.test_case "gf2_rank" `Quick test_gf2_rank;
    Alcotest.test_case "gf2_zero" `Quick test_gf2_zero_rejected;
    Alcotest.test_case "gf2_nullspace" `Quick test_gf2_nullspace;
    Alcotest.test_case "gf2_underdetermined" `Quick
      test_gf2_nullspace_underdetermined;
    Alcotest.test_case "gf2_random" `Quick test_gf2_random_consistency;
    Alcotest.test_case "simon_function" `Quick test_simon_canonical_function;
    Alcotest.test_case "simon_oracle" `Quick test_simon_oracle_xors;
    Alcotest.test_case "simon_recovers" `Quick test_simon_recovers_period;
    Alcotest.test_case "simon_single_bit" `Quick test_simon_single_bit;
    Alcotest.test_case "counting_zero" `Quick test_counting_zero_marked;
    Alcotest.test_case "counting_single" `Quick test_counting_single_marked;
    Alcotest.test_case "counting_quarter" `Quick
      test_counting_quarter_marked;
    Alcotest.test_case "counting_scales" `Quick test_counting_scales;
    Alcotest.test_case "counting_validates" `Quick test_counting_validates;
    Alcotest.test_case "grover_operator_unitary" `Quick
      test_grover_operator_unitary;
  ]
