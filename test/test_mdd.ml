open Dd_complex
open Util

let c = Cnum.make
let r = Cnum.of_float

let check_dense_matrix msg expected actual =
  Array.iteri
    (fun row erow ->
      Array.iteri
        (fun col e ->
          check_cnum
            (Printf.sprintf "%s [%d,%d]" msg row col)
            e
            actual.(row).(col))
        erow)
    expected

let test_identity () =
  let ctx = fresh_ctx () in
  let e = Dd.Mdd.identity ctx 3 in
  check_dense_matrix "identity" (dense_id 3) (Dd.Mdd.to_dense e ~n:3)

let test_identity_linear_size () =
  let ctx = fresh_ctx () in
  (* "the identity ... can be represented by a single node for each qubit" *)
  check_int "identity is a chain" 12
    (Dd.Mdd.node_count (Dd.Mdd.identity ctx 12))

let test_single_qubit_gate_each_target () =
  let ctx = fresh_ctx () in
  let n = 3 in
  List.iter
    (fun target ->
      let gate = Gate.h target in
      let dd = Dd.Mdd.gate ctx ~n ~target (Gate.matrix gate.Gate.kind) in
      check_dense_matrix
        (Printf.sprintf "H on qubit %d" target)
        (dense_gate ~n gate) (Dd.Mdd.to_dense dd ~n))
    [ 0; 1; 2 ]

let test_gate_kinds_dense () =
  let ctx = fresh_ctx () in
  let n = 2 in
  List.iter
    (fun kind ->
      let gate = Gate.make kind 1 in
      let dd = Dd.Mdd.gate ctx ~n ~target:1 (Gate.matrix kind) in
      check_dense_matrix (Gate.name gate) (dense_gate ~n gate)
        (Dd.Mdd.to_dense dd ~n))
    [
      Gate.X; Gate.Y; Gate.Z; Gate.S; Gate.Sdg; Gate.T; Gate.Tdg; Gate.Sx;
      Gate.Sxdg; Gate.Sy; Gate.Sydg; Gate.Rx 0.7; Gate.Ry 1.1; Gate.Rz 2.3;
      Gate.Phase 0.9;
    ]

let gate_dd ctx ~n (gate : Gate.t) =
  Dd.Mdd.gate ctx ~n ~target:gate.target ~controls:(dd_controls gate)
    (Gate.matrix gate.kind)

let test_cx_both_orientations () =
  let ctx = fresh_ctx () in
  List.iter
    (fun (control, target) ->
      let gate = Gate.cx control target in
      check_dense_matrix
        (Printf.sprintf "cx %d %d" control target)
        (dense_gate ~n:2 gate)
        (Dd.Mdd.to_dense (gate_dd ctx ~n:2 gate) ~n:2))
    [ (0, 1); (1, 0) ]

let test_cx_matches_paper_matrix () =
  (* the CX matrix displayed in Section II-A (control = MSB) *)
  let ctx = fresh_ctx () in
  let dd = gate_dd ctx ~n:2 (Gate.cx 1 0) in
  let expected =
    [|
      [| r 1.; r 0.; r 0.; r 0. |];
      [| r 0.; r 1.; r 0.; r 0. |];
      [| r 0.; r 0.; r 0.; r 1. |];
      [| r 0.; r 0.; r 1.; r 0. |];
    |]
  in
  check_dense_matrix "CX" expected (Dd.Mdd.to_dense dd ~n:2)

let test_negative_control () =
  let ctx = fresh_ctx () in
  let gate = Gate.make ~controls:[ Gate.nctrl 1 ] Gate.X 0 in
  check_dense_matrix "negatively controlled X" (dense_gate ~n:2 gate)
    (Dd.Mdd.to_dense (gate_dd ctx ~n:2 gate) ~n:2)

let test_toffoli () =
  let ctx = fresh_ctx () in
  let gate = Gate.ccx 0 1 2 in
  check_dense_matrix "ccx" (dense_gate ~n:3 gate)
    (Dd.Mdd.to_dense (gate_dd ctx ~n:3 gate) ~n:3)

let test_mcz_mixed_polarity () =
  let ctx = fresh_ctx () in
  let gate =
    Gate.make ~controls:[ Gate.ctrl 3; Gate.nctrl 1 ] Gate.Z 2
  in
  check_dense_matrix "mixed-polarity mcz" (dense_gate ~n:4 gate)
    (Dd.Mdd.to_dense (gate_dd ctx ~n:4 gate) ~n:4)

let test_gate_rejects_bad_input () =
  let ctx = fresh_ctx () in
  Alcotest.check_raises "control = target"
    (Dd.Dd_error.Error
       (Dd.Dd_error.Invalid_operand
          { operation = "Mdd.gate"; message = "control equals target" }))
    (fun () ->
      ignore
        (Dd.Mdd.gate ctx ~n:2 ~target:0
           ~controls:[ { Dd.Context.qubit = 0; positive = true } ]
           (Gate.matrix Gate.X)))

let test_gate_size_linear () =
  let ctx = fresh_ctx () in
  let n = 16 in
  let dd = gate_dd ctx ~n (Gate.cx 3 12) in
  check_bool "elementary gate DDs are linear in n" true
    (Dd.Mdd.node_count dd <= 2 * n)

let test_of_dense_roundtrip () =
  let ctx = fresh_ctx () in
  let m =
    [|
      [| c 0.1 0.; c 0. 0.2; c 0.3 0.; c 0. 0. |];
      [| c 0. 0.; c 0.5 0.5; c 0. 0.; c 1. 0. |];
      [| c 0.7 0.; c 0. 0.; c 0. (-0.1); c 0. 0. |];
      [| c 0. 0.; c 0.2 0.; c 0. 0.; c 0.4 0.4 |];
    |]
  in
  check_dense_matrix "of_dense/to_dense roundtrip" m
    (Dd.Mdd.to_dense (Dd.Mdd.of_dense ctx m) ~n:2)

let test_permutation () =
  let ctx = fresh_ctx () in
  let f x = (x + 3) mod 8 in
  let dd = Dd.Mdd.of_permutation ctx ~n:3 f in
  let expected =
    Array.init 8 (fun row ->
        Array.init 8 (fun col -> if row = f col then Cnum.one else Cnum.zero))
  in
  check_dense_matrix "cyclic shift" expected (Dd.Mdd.to_dense dd ~n:3)

let test_permutation_rejects_non_bijection () =
  let ctx = fresh_ctx () in
  Alcotest.check_raises "constant map rejected"
    (Invalid_argument "Mdd.of_permutation: not a bijection") (fun () ->
      ignore (Dd.Mdd.of_permutation ctx ~n:2 (fun _ -> 0)))

let test_mul_matches_dense () =
  let ctx = fresh_ctx () in
  let a = gate_dd ctx ~n:2 (Gate.h 0) in
  let b = gate_dd ctx ~n:2 (Gate.cx 0 1) in
  let product = Dd.Mdd.mul ctx b a in
  let expected =
    dense_matmul (dense_gate ~n:2 (Gate.cx 0 1)) (dense_gate ~n:2 (Gate.h 0))
  in
  check_dense_matrix "CX x H" expected (Dd.Mdd.to_dense product ~n:2)

let test_mul_with_identity () =
  let ctx = fresh_ctx () in
  let u = gate_dd ctx ~n:3 (Gate.ccx 0 1 2) in
  let id = Dd.Mdd.identity ctx 3 in
  check_bool "I x U = U" true (Dd.Mdd.equal u (Dd.Mdd.mul ctx id u));
  check_bool "U x I = U" true (Dd.Mdd.equal u (Dd.Mdd.mul ctx u id))

let test_unitarity_canonical () =
  (* U+ x U must literally be the canonical identity DD *)
  let ctx = fresh_ctx () in
  List.iter
    (fun gate ->
      let u = gate_dd ctx ~n:3 gate in
      let udg = Dd.Mdd.adjoint ctx u in
      check_bool
        ("U+U = I for " ^ Gate.name gate)
        true
        (Dd.Mdd.equal (Dd.Mdd.identity ctx 3) (Dd.Mdd.mul ctx udg u)))
    [ Gate.h 1; Gate.t_gate 0; Gate.cx 2 0; Gate.rx 0.3 2; Gate.sy 1 ]

let test_apply_matches_dense () =
  let ctx = fresh_ctx () in
  let v = [| c 0.5 0.; c 0.5 0.; c 0.5 0.; c 0. 0.5 |] in
  let gate = Gate.cx 0 1 in
  let result =
    Dd.Mdd.apply ctx (gate_dd ctx ~n:2 gate) (Dd.Vdd.of_array ctx v)
  in
  check_cnum_array "matrix-vector multiplication"
    (dense_matvec (dense_gate ~n:2 gate) v)
    (Dd.Vdd.to_array result ~n:2)

let test_apply_zero () =
  let ctx = fresh_ctx () in
  let u = gate_dd ctx ~n:2 (Gate.h 0) in
  check_bool "U x 0 = 0" true
    (Dd.Types.v_is_zero (Dd.Mdd.apply ctx u Dd.Vdd.zero))

let test_adjoint_matches_dense () =
  let ctx = fresh_ctx () in
  let u = gate_dd ctx ~n:2 (Gate.make (Gate.Rx 0.9) 0) in
  let expected =
    let m = dense_gate ~n:2 (Gate.make (Gate.Rx 0.9) 0) in
    Array.init 4 (fun row ->
        Array.init 4 (fun col -> Cnum.conj m.(col).(row)))
  in
  check_dense_matrix "adjoint" expected
    (Dd.Mdd.to_dense (Dd.Mdd.adjoint ctx u) ~n:2)

let test_kron_matches_dense () =
  let ctx = fresh_ctx () in
  let h = Dd.Mdd.gate ctx ~n:1 ~target:0 (Gate.matrix Gate.H) in
  let x = Dd.Mdd.gate ctx ~n:1 ~target:0 (Gate.matrix Gate.X) in
  let expected =
    dense_kron (dense_gate ~n:1 (Gate.h 0)) (dense_gate ~n:1 (Gate.x 0))
  in
  check_dense_matrix "H (x) X" expected
    (Dd.Mdd.to_dense (Dd.Mdd.kron ctx h x) ~n:2)

let test_kron_with_identity_is_gate () =
  let ctx = fresh_ctx () in
  let h1 = Dd.Mdd.gate ctx ~n:1 ~target:0 (Gate.matrix Gate.H) in
  let lifted = Dd.Mdd.kron ctx (Dd.Mdd.identity ctx 2) h1 in
  let direct = Dd.Mdd.gate ctx ~n:3 ~target:0 (Gate.matrix Gate.H) in
  check_bool "I (x) H == H-on-qubit-0 canonically" true
    (Dd.Mdd.equal lifted direct)

let test_control_top () =
  let ctx = fresh_ctx () in
  let x1 = Dd.Mdd.gate ctx ~n:1 ~target:0 (Gate.matrix Gate.X) in
  let cx_via_control_top = Dd.Mdd.control_top ctx ~n:1 x1 in
  let cx_direct = gate_dd ctx ~n:2 (Gate.cx 1 0) in
  check_bool "control_top builds CX" true
    (Dd.Mdd.equal cx_via_control_top cx_direct)

let test_add_matrices () =
  let ctx = fresh_ctx () in
  let x = gate_dd ctx ~n:1 (Gate.x 0) in
  let z = gate_dd ctx ~n:1 (Gate.z 0) in
  let sum = Dd.Mdd.add ctx x z in
  let expected =
    [| [| r 1.; r 1. |]; [| r 1.; r (-1.) |] |]
  in
  check_dense_matrix "X + Z" expected (Dd.Mdd.to_dense sum ~n:1)

let test_entry () =
  let ctx = fresh_ctx () in
  let dd = gate_dd ctx ~n:3 (Gate.ccx 0 1 2) in
  check_cnum "flip entry" Cnum.one (Dd.Mdd.entry dd ~n:3 ~row:7 ~col:3);
  check_cnum "identity entry" Cnum.one (Dd.Mdd.entry dd ~n:3 ~row:2 ~col:2);
  check_cnum "off entry" Cnum.zero (Dd.Mdd.entry dd ~n:3 ~row:0 ~col:1)

(* -- the gate-DD memo (Context.gate) -------------------------------------- *)

let gate_table ctx = Dd.Compute_table.stats ctx.Dd.Context.gate

let test_gate_memo_hit () =
  let ctx = fresh_ctx () in
  let gate = Gate.make ~controls:[ Gate.ctrl 3; Gate.nctrl 0 ] Gate.H 1 in
  let first = gate_dd ctx ~n:4 gate in
  let nodes = Dd.Context.m_unique_size ctx in
  let weights = Ctable.size ctx.Dd.Context.ctable in
  let before = gate_table ctx in
  let again = gate_dd ctx ~n:4 gate in
  let after = gate_table ctx in
  check_bool "same node" true (first.Dd.Types.mt == again.Dd.Types.mt);
  check_int "same weight tag" (Cnum.tag first.Dd.Types.mw)
    (Cnum.tag again.Dd.Types.mw);
  check_int "no matrix node created" nodes (Dd.Context.m_unique_size ctx);
  check_int "no weight interned" weights (Ctable.size ctx.Dd.Context.ctable);
  check_int "one gate hit" (before.hits + 1) after.hits;
  check_int "no gate miss" before.misses after.misses

(* a fresh context's build of [gate] under [order]: what every memoised
   gate DD must equal *)
let fresh_dense ~order ~n gate =
  let ctx = fresh_ctx () in
  Dd.Context.set_order ctx order;
  Dd.Mdd.to_dense ~order (gate_dd ctx ~n gate) ~n

let test_gate_memo_key_is_exact () =
  let ctx = fresh_ctx () in
  let own_entry msg ?(order = Dd.Order.identity) ~n gate =
    Dd.Context.set_order ctx order;
    let before = gate_table ctx in
    let dd = gate_dd ctx ~n gate in
    let after = gate_table ctx in
    check_int (msg ^ ": a miss") (before.misses + 1) after.misses;
    check_int (msg ^ ": its own entry") (before.entries + 1) after.entries;
    check_dense_matrix msg (fresh_dense ~order ~n gate)
      (Dd.Mdd.to_dense ~order dd ~n)
  in
  own_entry "cx 0 2" ~n:3 (Gate.cx 0 2);
  own_entry "cx 0 2 under a non-identity order"
    ~order:(Dd.Order.of_qubit_of_level [| 2; 0; 1 |])
    ~n:3 (Gate.cx 0 2);
  own_entry "h 0 on 2 qubits" ~n:2 (Gate.h 0);
  own_entry "h 0 on 3 qubits" ~n:3 (Gate.h 0);
  own_entry "cx 1 0" ~n:2 (Gate.cx 1 0);
  own_entry "cx 1 0, negative control" ~n:2
    (Gate.make ~controls:[ Gate.nctrl 1 ] Gate.X 0)

let test_gate_memo_follows_collect () =
  let ctx = fresh_ctx () in
  let n = 5 and h = Gate.h 2 in
  let original = Dd.Mdd.to_dense (gate_dd ctx ~n h) ~n in
  ignore (Dd.Context.collect ctx ~v_roots:[] ~m_roots:[]);
  check_int "unrooted: the entry is swept" 0 (gate_table ctx).entries;
  let before = gate_table ctx in
  let rebuilt = gate_dd ctx ~n h in
  check_int "the rebuild is a miss" (before.misses + 1)
    (gate_table ctx).misses;
  check_dense_matrix "the rebuild equals the original" original
    (Dd.Mdd.to_dense rebuilt ~n);
  ignore (Dd.Context.collect ctx ~v_roots:[] ~m_roots:[ rebuilt ]);
  check_int "rooted: the entry survives" 1 (gate_table ctx).entries;
  let before = gate_table ctx in
  let again = gate_dd ctx ~n h in
  check_int "and hits" (before.hits + 1) (gate_table ctx).hits;
  check_bool "with the rooted edge" true (Dd.Mdd.equal rebuilt again)

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "identity_linear_size" `Quick
      test_identity_linear_size;
    Alcotest.test_case "single_qubit_targets" `Quick
      test_single_qubit_gate_each_target;
    Alcotest.test_case "gate_kinds_dense" `Quick test_gate_kinds_dense;
    Alcotest.test_case "cx_both_orientations" `Quick
      test_cx_both_orientations;
    Alcotest.test_case "cx_paper_matrix" `Quick test_cx_matches_paper_matrix;
    Alcotest.test_case "negative_control" `Quick test_negative_control;
    Alcotest.test_case "toffoli" `Quick test_toffoli;
    Alcotest.test_case "mcz_mixed_polarity" `Quick test_mcz_mixed_polarity;
    Alcotest.test_case "gate_rejects_bad_input" `Quick
      test_gate_rejects_bad_input;
    Alcotest.test_case "gate_size_linear" `Quick test_gate_size_linear;
    Alcotest.test_case "of_dense_roundtrip" `Quick test_of_dense_roundtrip;
    Alcotest.test_case "permutation" `Quick test_permutation;
    Alcotest.test_case "permutation_not_bijection" `Quick
      test_permutation_rejects_non_bijection;
    Alcotest.test_case "mul_matches_dense" `Quick test_mul_matches_dense;
    Alcotest.test_case "mul_with_identity" `Quick test_mul_with_identity;
    Alcotest.test_case "unitarity_canonical" `Quick test_unitarity_canonical;
    Alcotest.test_case "apply_matches_dense" `Quick test_apply_matches_dense;
    Alcotest.test_case "apply_zero" `Quick test_apply_zero;
    Alcotest.test_case "adjoint_matches_dense" `Quick
      test_adjoint_matches_dense;
    Alcotest.test_case "kron_matches_dense" `Quick test_kron_matches_dense;
    Alcotest.test_case "kron_identity_is_gate" `Quick
      test_kron_with_identity_is_gate;
    Alcotest.test_case "control_top" `Quick test_control_top;
    Alcotest.test_case "add_matrices" `Quick test_add_matrices;
    Alcotest.test_case "entry" `Quick test_entry;
    Alcotest.test_case "gate_memo_hit" `Quick test_gate_memo_hit;
    Alcotest.test_case "gate_memo_key_is_exact" `Quick
      test_gate_memo_key_is_exact;
    Alcotest.test_case "gate_memo_follows_collect" `Quick
      test_gate_memo_follows_collect;
  ]

let test_of_diagonal () =
  let ctx = fresh_ctx () in
  let f i = Cnum.of_polar 1. (0.3 *. float_of_int i) in
  let dd = Dd.Mdd.of_diagonal ctx ~n:3 f in
  let dense = Dd.Mdd.to_dense dd ~n:3 in
  for row = 0 to 7 do
    for col = 0 to 7 do
      check_cnum
        (Printf.sprintf "diag entry %d %d" row col)
        (if row = col then f row else Cnum.zero)
        dense.(row).(col)
    done
  done

let test_of_diagonal_shares () =
  let ctx = fresh_ctx () in
  (* a constant diagonal is the (scaled) identity: maximal sharing *)
  let dd = Dd.Mdd.of_diagonal ctx ~n:10 (fun _ -> Cnum.make 0. 1.) in
  check_int "constant diagonal is a chain" 10 (Dd.Mdd.node_count dd);
  check_bool "equals i * identity" true
    (Dd.Mdd.equal dd
       (Dd.Mdd.scale ctx (Cnum.make 0. 1.) (Dd.Mdd.identity ctx 10)))

let suite =
  suite
  @ [
      Alcotest.test_case "of_diagonal" `Quick test_of_diagonal;
      Alcotest.test_case "of_diagonal_shares" `Quick test_of_diagonal_shares;
    ]
