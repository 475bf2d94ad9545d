(* Truncation and the unweighted-DD size comparison. *)

open Dd_complex
open Util

let r = Cnum.of_float

(* --- truncate ---------------------------------------------------------- *)

let test_truncate_removes_small_branches () =
  let ctx = fresh_ctx () in
  let eps = 1e-4 in
  let v = [| r (sqrt (1. -. (eps *. eps))); r 0.; r eps; r 0. |] in
  let e = Dd.Vdd.of_array ctx v in
  let truncated = Dd.Vdd.truncate ctx ~threshold:1e-3 e in
  check_cnum "small branch removed" Cnum.zero
    (Dd.Vdd.amplitude ctx truncated ~n:2 2);
  check_float "renormalised" 1. (Dd.Measure.norm2 ctx truncated);
  check_float "dominant amplitude now exactly one" 1.
    (Cnum.mag2 (Dd.Vdd.amplitude ctx truncated ~n:2 0))

let test_truncate_identity_when_threshold_tiny () =
  let ctx = fresh_ctx () in
  let circuit = Standard.random_circuit ~seed:23 ~qubits:5 ~gates:40 () in
  let engine = Dd_sim.Engine.create ~context:ctx 5 in
  Dd_sim.Engine.run engine circuit;
  let state = Dd_sim.Engine.state engine in
  let truncated = Dd.Vdd.truncate ctx ~threshold:1e-15 state in
  check_cnum_array "nothing removed below machine noise"
    (Dd.Vdd.to_array ctx state ~n:5)
    (Dd.Vdd.to_array ctx truncated ~n:5)

let test_truncate_preserves_fidelity () =
  let ctx = fresh_ctx () in
  let circuit = Supremacy.circuit ~seed:2 ~rows:3 ~cols:3 ~cycles:10 () in
  let engine = Dd_sim.Engine.create ~context:ctx 9 in
  Dd_sim.Engine.run engine circuit;
  let state = Dd_sim.Engine.state engine in
  let truncated = Dd.Vdd.truncate ctx ~threshold:0.02 state in
  let fidelity = Cnum.mag2 (Dd.Vdd.dot ctx state truncated) in
  check_bool
    (Printf.sprintf "mild truncation keeps high fidelity (%.4f)" fidelity)
    true (fidelity > 0.9);
  check_bool "and shrinks (or keeps) the DD" true
    (Dd.Vdd.node_count truncated <= Dd.Vdd.node_count state)

let test_truncate_rejects_overzealous () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:2 1 in
  Alcotest.check_raises "threshold kills the state"
    (Invalid_argument "Vdd.truncate: threshold removes the whole state")
    (fun () -> ignore (Dd.Vdd.truncate ctx ~threshold:2. e))

(* --- unweighted comparison --------------------------------------------- *)

let test_unweighted_roundtrip () =
  let ctx = fresh_ctx () in
  let v = [| r 0.; r 0.5; r (-0.5); r 0.; r 0.5; r 0.; r 0.; r 0.5 |] in
  let e = Dd.Vdd.of_array ctx v in
  check_cnum_array "unweighted expansion matches" v
    (Dd.Unweighted.to_array (Dd.Unweighted.of_vdd ctx e) ~n:3)

let test_unweighted_paper_figure_sizes () =
  (* the paper's Fig. 2 example vector: [0,0,0,0, 1/2,-1/2, 1/2,1/2] *)
  let ctx = fresh_ctx () in
  let v = [| r 0.; r 0.; r 0.; r 0.; r 0.5; r (-0.5); r 0.5; r 0.5 |] in
  let weighted = Dd.Vdd.of_array ctx v in
  let unweighted = Dd.Unweighted.of_vdd ctx weighted in
  (* weighted: 4 internal nodes + shared terminal; unweighted needs extra
     nodes because -1/2 sub-vectors cannot share with +1/2 ones *)
  check_int "weighted size (Fig. 2c)" 4 (Dd.Vdd.node_count weighted);
  check_bool "unweighted (Fig. 2b) is strictly bigger" true
    (Dd.Unweighted.total_count unweighted
    > Dd.Vdd.node_count weighted + 1);
  check_int "three distinct leaves (0, 1/2, -1/2)" 3
    (Dd.Unweighted.leaf_count unweighted)

let test_unweighted_phase_states_blow_up () =
  (* a phase-gradient state has a linear weighted DD but a large
     unweighted one: the motivation for edge weights *)
  let ctx = fresh_ctx () in
  let n = 6 in
  let engine = Dd_sim.Engine.create ~context:ctx n in
  (* QFT of |1> has 2^n distinct phases; QFT of |0> would be uniform and
     shareable even without weights *)
  Dd_sim.Engine.apply_gate engine (Gate.x 0);
  Dd_sim.Engine.run engine (Qft.circuit n);
  let state = Dd_sim.Engine.state engine in
  let unweighted = Dd.Unweighted.of_vdd ctx state in
  check_bool "weighted stays small" true (Dd.Vdd.node_count state <= 2 * n);
  check_bool "unweighted explodes" true
    (Dd.Unweighted.total_count unweighted > 4 * Dd.Vdd.node_count state)

let suite =
  [
    Alcotest.test_case "truncate_small" `Quick
      test_truncate_removes_small_branches;
    Alcotest.test_case "truncate_identity" `Quick
      test_truncate_identity_when_threshold_tiny;
    Alcotest.test_case "truncate_fidelity" `Quick
      test_truncate_preserves_fidelity;
    Alcotest.test_case "truncate_rejects" `Quick
      test_truncate_rejects_overzealous;
    Alcotest.test_case "unweighted_roundtrip" `Quick
      test_unweighted_roundtrip;
    Alcotest.test_case "unweighted_fig2" `Quick
      test_unweighted_paper_figure_sizes;
    Alcotest.test_case "unweighted_blowup" `Quick
      test_unweighted_phase_states_blow_up;
  ]
