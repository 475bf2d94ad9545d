(* Dynamic variable reordering: the order layer, the adjacent-level swap
   rewrite, sifting, the engine policy and checkpoint persistence.

   The central invariant everywhere: reordering changes the *levels* the
   qubits live on, never the qubit-space amplitudes — [Vdd.to_array
   ~order] must return the same array before and after any sequence of
   swaps. *)

open Dd_complex
open Util

let reversed n =
  Dd.Order.of_qubit_of_level (Array.init n (fun l -> n - 1 - l))

let qubit_amplitudes ctx edge ~n =
  Dd.Vdd.to_array ~order:(Dd.Context.order ctx) ctx edge ~n

(* a state whose identity-order DD is wide: qubit i is entangled with
   qubit i+k, so all k pairs straddle the middle of the level stack *)
let straddling_pairs_circuit k =
  let n = 2 * k in
  let gates =
    List.concat_map (fun i -> [ Gate.h i; Gate.cx i (i + k) ]) (List.init k Fun.id)
  in
  Circuit.of_gates ~qubits:n gates

(* -- Order ------------------------------------------------------------- *)

let test_order_identity () =
  check_bool "sentinel is identity" true (Dd.Order.is_identity Dd.Order.identity);
  check_int "identity maps any qubit to itself" 7
    (Dd.Order.level_of_qubit Dd.Order.identity 7);
  check_int "identity maps any level to itself" 3
    (Dd.Order.qubit_of_level Dd.Order.identity 3);
  (* a literal identity permutation collapses to the sentinel *)
  let literal = Dd.Order.of_qubit_of_level [| 0; 1; 2 |] in
  check_bool "literal identity normalises to the sentinel" true
    (Dd.Order.is_identity literal)

let test_order_roundtrip () =
  let order = Dd.Order.of_string "2,0,1,3" in
  check_int "level 0 hosts qubit 2" 2 (Dd.Order.qubit_of_level order 0);
  check_int "qubit 2 lives at level 0" 0 (Dd.Order.level_of_qubit order 2);
  check_bool "string roundtrip" true
    (Dd.Order.equal ~n:4 order (Dd.Order.of_string (Dd.Order.to_string order)));
  check_bool "identity spelling" true
    (Dd.Order.is_identity (Dd.Order.of_string "identity"));
  check_bool "self-consistent" true (Dd.Order.is_valid order)

let test_order_rejects_non_permutation () =
  Alcotest.check_raises "duplicate image"
    (Invalid_argument "Order.of_qubit_of_level: not a permutation")
    (fun () -> ignore (Dd.Order.of_qubit_of_level [| 0; 0; 1 |]))

let test_order_swap_levels () =
  let order = Dd.Order.swap_levels Dd.Order.identity ~n:4 1 in
  check_int "level 1 now hosts qubit 2" 2 (Dd.Order.qubit_of_level order 1);
  check_int "level 2 now hosts qubit 1" 1 (Dd.Order.qubit_of_level order 2);
  check_bool "still a valid permutation" true (Dd.Order.is_valid order);
  let back = Dd.Order.swap_levels order ~n:4 1 in
  check_bool "double swap is identity" true (Dd.Order.is_identity back)

(* -- adjacent swap ------------------------------------------------------ *)

let test_swap_preserves_amplitudes () =
  let ctx = fresh_ctx () in
  let circuit = Standard.random_circuit ~seed:3 ~qubits:5 ~gates:30 () in
  let engine = Dd_sim.Engine.create ~context:ctx 5 in
  Dd_sim.Engine.run engine circuit;
  let edge = Dd_sim.Engine.state engine in
  let before = qubit_amplitudes ctx edge ~n:5 in
  let edge = ref edge in
  for level = 0 to 3 do
    edge := Dd.Reorder.swap ctx !edge ~level;
    check_cnum_array
      (Printf.sprintf "amplitudes unchanged after swapping level %d" level)
      before
      (qubit_amplitudes ctx !edge ~n:5)
  done

let test_swap_is_involutive_and_canonical () =
  let ctx = fresh_ctx () in
  let circuit = Standard.random_circuit ~seed:17 ~qubits:4 ~gates:25 () in
  let engine = Dd_sim.Engine.create ~context:ctx 4 in
  Dd_sim.Engine.run engine circuit;
  let original = Dd_sim.Engine.state engine in
  let swapped = Dd.Reorder.swap ctx original ~level:1 in
  (* canonicity of every node the swap rebuilt *)
  Alcotest.(check (list string))
    "swapped DD passes the auditor" []
    (List.map Dd.Audit.to_string (Dd.Audit.check_vector ctx swapped));
  let back = Dd.Reorder.swap ctx swapped ~level:1 in
  check_bool "swap . swap = id on the DD (hash-consed equality)" true
    (Dd.Vdd.equal original back);
  check_bool "swap . swap = id on the order" true
    (Dd.Order.is_identity (Dd.Context.order ctx))

let test_swap_out_of_range () =
  let ctx = fresh_ctx () in
  let e = Dd.Vdd.basis ctx ~n:3 0 in
  Alcotest.check_raises "top level has no upper neighbour"
    (Invalid_argument "Reorder.swap_vector: level out of range")
    (fun () -> ignore (Dd.Reorder.swap_vector ctx e ~level:2))

let test_swap_matrix_matches_dense () =
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx 3 in
  let product =
    Dd_sim.Engine.combine engine
      (Circuit.flatten (Standard.random_circuit ~seed:6 ~qubits:3 ~gates:12 ()))
  in
  let dense_before = Dd.Mdd.to_dense ctx product ~n:3 in
  let swapped = Dd.Reorder.swap_matrix ctx product ~level:1 in
  let order = Dd.Order.swap_levels Dd.Order.identity ~n:3 1 in
  let dense_after = Dd.Mdd.to_dense ~order ctx swapped ~n:3 in
  Array.iteri
    (fun r row ->
      Array.iteri
        (fun c v ->
          check_cnum (Printf.sprintf "entry %d %d" r c) v dense_after.(r).(c))
        row)
    dense_before

(* -- explicit order / sifting ------------------------------------------ *)

let test_apply_order_reversed () =
  let ctx = fresh_ctx () in
  let circuit = Standard.random_circuit ~seed:29 ~qubits:5 ~gates:30 () in
  let engine = Dd_sim.Engine.create ~context:ctx 5 in
  Dd_sim.Engine.run engine circuit;
  let edge = Dd_sim.Engine.state engine in
  let before = qubit_amplitudes ctx edge ~n:5 in
  let edge, swaps = Dd.Reorder.apply_order ctx edge (reversed 5) in
  check_bool "reversal needs swaps" true (swaps > 0);
  check_bool "context order is the requested one" true
    (Dd.Order.equal ~n:5 (Dd.Context.order ctx) (reversed 5));
  check_cnum_array "amplitudes unchanged under the reversed order" before
    (qubit_amplitudes ctx edge ~n:5)

let test_sift_shrinks_straddling_pairs () =
  let k = 4 in
  let n = 2 * k in
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx n in
  Dd_sim.Engine.run engine (straddling_pairs_circuit k);
  let edge = Dd_sim.Engine.state engine in
  let before = qubit_amplitudes ctx edge ~n in
  let nodes_before = Dd.Vdd.node_count edge in
  let edge, stats = Dd.Reorder.sift ctx edge in
  check_int "stats record the entry size" nodes_before
    stats.Dd.Reorder.nodes_before;
  check_int "stats record the exit size" (Dd.Vdd.node_count edge)
    stats.Dd.Reorder.nodes_after;
  check_bool
    (Printf.sprintf "sifting shrinks the DD (%d -> %d)" nodes_before
       stats.Dd.Reorder.nodes_after)
    true
    (stats.Dd.Reorder.nodes_after < nodes_before);
  check_bool "order is a valid permutation" true
    (Dd.Order.is_identity (Dd.Context.order ctx)
    || Dd.Order.is_valid (Dd.Context.order ctx));
  Alcotest.(check (list string))
    "order audit is clean" []
    (List.map Dd.Audit.to_string (Dd.Audit.check_order ctx));
  check_cnum_array "amplitudes survive sifting" before
    (qubit_amplitudes ctx edge ~n)

let test_bulge_detection () =
  Alcotest.(check (option int))
    "uniform profile has no bulge" None
    (Obs.Dd_profile.bulge [| 20; 21; 20; 22; 20 |]);
  Alcotest.(check (option int))
    "one heavy level is the bulge" (Some 2)
    (Obs.Dd_profile.bulge [| 4; 5; 120; 5; 4 |]);
  Alcotest.(check (option int))
    "worst of two bulges wins" (Some 3)
    (Obs.Dd_profile.bulge [| 4; 100; 4; 180; 4 |]);
  Alcotest.(check (option int))
    "min_nodes keeps small DDs quiet" None
    (Obs.Dd_profile.bulge [| 1; 1; 12; 1; 1 |]);
  Alcotest.(check (option int))
    "empty profile" None (Obs.Dd_profile.bulge [||])

(* -- engine policy ------------------------------------------------------ *)

let test_engine_explicit_order_matches_dense () =
  let circuit = Standard.random_circuit ~seed:41 ~qubits:5 ~gates:40 () in
  let engine = Dd_sim.Engine.create 5 in
  ignore (Dd_sim.Engine.set_order engine (reversed 5));
  Dd_sim.Engine.run engine circuit;
  let ctx = Dd_sim.Engine.context engine in
  check_bool "order still reversed after the run" true
    (Dd.Order.equal ~n:5 (Dd.Context.order ctx) (reversed 5));
  check_cnum_array "reversed-order run matches the dense simulator"
    (dense_state_of_circuit circuit)
    (qubit_amplitudes ctx (Dd_sim.Engine.state engine) ~n:5);
  let stats = Dd_sim.Engine.stats engine in
  check_int "explicit order counted as one reorder" 1
    stats.Dd_sim.Sim_stats.reorders_run

let test_engine_adaptive_matches_dense () =
  let k = 3 in
  let n = 2 * k in
  let circuit = straddling_pairs_circuit k in
  let engine = Dd_sim.Engine.create n in
  Dd_sim.Engine.set_reorder engine ~bulge_factor:1.5 ~every:1
    Dd_sim.Engine.Reorder_adaptive;
  Dd_sim.Engine.run engine circuit;
  let ctx = Dd_sim.Engine.context engine in
  check_cnum_array "adaptive reordering never changes the semantics"
    (dense_state_of_circuit circuit)
    (qubit_amplitudes ctx (Dd_sim.Engine.state engine) ~n)

let test_engine_adaptive_with_audit_never_aborts () =
  (* the acceptance scenario: adaptive reordering under a tight audit
     cadence — every swap's canonicity is re-derived by the auditor *)
  let circuit = Standard.random_circuit ~seed:97 ~qubits:6 ~gates:120 () in
  let engine = Dd_sim.Engine.create 6 in
  Dd_sim.Engine.set_reorder engine ~bulge_factor:1.2 ~every:4
    Dd_sim.Engine.Reorder_adaptive;
  Dd_sim.Engine.set_audit engine 16;
  Dd_sim.Engine.run engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  check_bool "auditor actually ran" true
    (stats.Dd_sim.Sim_stats.audits_run > 0);
  check_int "no violations under reordering" 0
    stats.Dd_sim.Sim_stats.audit_violations;
  check_cnum_array "audited adaptive run matches the dense simulator"
    (dense_state_of_circuit circuit)
    (qubit_amplitudes (Dd_sim.Engine.context engine)
       (Dd_sim.Engine.state engine) ~n:6)

let test_engine_measure_under_reordered_state () =
  let engine = Dd_sim.Engine.create 5 in
  Dd_sim.Engine.run engine (Standard.ghz 5);
  ignore (Dd_sim.Engine.set_order engine (reversed 5));
  let outcome = Dd_sim.Engine.measure_all engine in
  check_bool "GHZ collapses to all-zeros or all-ones" true
    (outcome = 0 || outcome = 31)

(* -- checkpoint v6 ------------------------------------------------------ *)

let test_checkpoint_roundtrips_order () =
  let circuit = Standard.random_circuit ~seed:53 ~qubits:5 ~gates:40 () in
  let flat = Circuit.flatten circuit in
  let cut = List.length flat / 2 in
  let prefix =
    Circuit.of_gates ~qubits:5 (List.filteri (fun i _ -> i < cut) flat)
  in
  let strategy = Dd_sim.Strategy.Sequential in
  let interrupted = Dd_sim.Engine.create ~seed:42 5 in
  ignore (Dd_sim.Engine.set_order interrupted (reversed 5));
  Dd_sim.Engine.run ~strategy interrupted prefix;
  let path = Filename.temp_file "ddsim" ".ckpt" in
  Dd_sim.Checkpoint.save interrupted ~strategy ~gate_index:cut ~path;
  let resumed = Dd_sim.Engine.create ~seed:7 5 in
  let checkpoint =
    Dd_sim.Checkpoint.load (Dd_sim.Engine.context resumed) ~path
  in
  Sys.remove path;
  check_bool "checkpoint carries the live order" true
    (Dd.Order.equal ~n:5 checkpoint.Dd_sim.Checkpoint.order (reversed 5));
  let start_gate = Dd_sim.Checkpoint.restore resumed checkpoint in
  check_bool "restore installs the order" true
    (Dd.Order.equal ~n:5
       (Dd.Context.order (Dd_sim.Engine.context resumed))
       (reversed 5));
  check_int "reorder counter survives the roundtrip" 1
    checkpoint.Dd_sim.Checkpoint.stats.Dd_sim.Sim_stats.reorders_run;
  Dd_sim.Engine.run ~strategy ~start_gate resumed circuit;
  check_cnum_array "resumed reordered run matches the dense simulator"
    (dense_state_of_circuit circuit)
    (qubit_amplitudes (Dd_sim.Engine.context resumed)
       (Dd_sim.Engine.state resumed) ~n:5)

let test_load_latest_reports_both_failures () =
  let path = Filename.temp_file "ddsim" ".ckpt" in
  Obs.Safe_io.write_file path "not a checkpoint\n";
  Obs.Safe_io.write_file (path ^ ".prev") "also garbage\n";
  let ctx = fresh_ctx () in
  (match Dd_sim.Checkpoint.load_latest ctx ~path with
  | _ -> Alcotest.fail "expected both generations to be rejected"
  | exception
      Dd_sim.Error.Error
        (Dd_sim.Error.Invalid_checkpoint { source; message }) ->
    check_bool "error names the file the user asked for" true
      (source = path);
    let mentions needle =
      let n = String.length message and m = String.length needle in
      let rec loop i =
        i + m <= n && (String.sub message i m = needle || loop (i + 1))
      in
      loop 0
    in
    check_bool "error mentions the fallback generation" true
      (mentions ".prev");
    check_bool "error carries a located reason for each generation" true
      (mentions "no loadable generation"));
  Sys.remove path;
  Sys.remove (path ^ ".prev")

(* -- property: any fixed order is semantically invisible ---------------- *)

let random_order_arb n =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "order seed %d" seed)
    QCheck.Gen.(0 -- 10000)
  |> QCheck.map_keep_input (fun seed ->
         let rng = Random.State.make [| seed |] in
         let image = Array.init n Fun.id in
         for i = n - 1 downto 1 do
           let j = Random.State.int rng (i + 1) in
           let t = image.(i) in
           image.(i) <- image.(j);
           image.(j) <- t
         done;
         Dd.Order.of_qubit_of_level image)

let prop_fixed_order_equals_identity =
  QCheck.Test.make
    ~name:"simulating under a random fixed order = identity amplitudes"
    ~count:40
    (QCheck.pair (random_order_arb 4)
       (QCheck.make
          ~print:(fun seed -> Printf.sprintf "circuit seed %d" seed)
          QCheck.Gen.(0 -- 10000)))
    (fun ((_, order), circuit_seed) ->
      let circuit =
        Standard.random_circuit ~seed:circuit_seed ~qubits:4 ~gates:25 ()
      in
      let identity_engine = Dd_sim.Engine.create 4 in
      Dd_sim.Engine.run identity_engine circuit;
      let reference =
        state_array identity_engine ~n:4
      in
      let engine = Dd_sim.Engine.create 4 in
      ignore (Dd_sim.Engine.set_order engine order);
      Dd_sim.Engine.run engine circuit;
      let actual =
        qubit_amplitudes (Dd_sim.Engine.context engine)
          (Dd_sim.Engine.state engine) ~n:4
      in
      Array.for_all2
        (fun a b -> Cnum.approx_equal ~tol:1e-8 a b)
        reference actual)

let suite =
  [
    Alcotest.test_case "order: identity sentinel" `Quick test_order_identity;
    Alcotest.test_case "order: string roundtrip" `Quick test_order_roundtrip;
    Alcotest.test_case "order: rejects non-permutations" `Quick
      test_order_rejects_non_permutation;
    Alcotest.test_case "order: swap_levels" `Quick test_order_swap_levels;
    Alcotest.test_case "swap preserves amplitudes" `Quick
      test_swap_preserves_amplitudes;
    Alcotest.test_case "swap is involutive and canonical" `Quick
      test_swap_is_involutive_and_canonical;
    Alcotest.test_case "swap rejects the top level" `Quick
      test_swap_out_of_range;
    Alcotest.test_case "matrix swap matches dense" `Quick
      test_swap_matrix_matches_dense;
    Alcotest.test_case "apply_order: reversal" `Quick
      test_apply_order_reversed;
    Alcotest.test_case "sifting shrinks straddling pairs" `Quick
      test_sift_shrinks_straddling_pairs;
    Alcotest.test_case "bulge detection" `Quick test_bulge_detection;
    Alcotest.test_case "engine: explicit order matches dense" `Quick
      test_engine_explicit_order_matches_dense;
    Alcotest.test_case "engine: adaptive matches dense" `Quick
      test_engine_adaptive_matches_dense;
    Alcotest.test_case "engine: adaptive + audit never aborts" `Quick
      test_engine_adaptive_with_audit_never_aborts;
    Alcotest.test_case "engine: measurement under a reordered state" `Quick
      test_engine_measure_under_reordered_state;
    Alcotest.test_case "checkpoint v6 roundtrips the order" `Quick
      test_checkpoint_roundtrips_order;
    Alcotest.test_case "load_latest reports both failed generations" `Quick
      test_load_latest_reports_both_failures;
    QCheck_alcotest.to_alcotest prop_fixed_order_equals_identity;
  ]
