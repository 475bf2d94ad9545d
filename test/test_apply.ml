(* The structured-apply fast path (Dd.Apply) must be *edge-identical* to
   building the explicit n-qubit gate DD and multiplying it in: same
   context, same canonical edge.  Unit tests pin the layout corner cases
   (control above / below the target, negative controls, several
   controls); a QCheck property sweeps random gates over random states. *)

open Util
open Dd_complex

(* both routes in one shared context; canonicity makes equality exact *)
let check_gate msg ctx ~n (gate : Gate.t) state =
  let entries = Gate.matrix gate.kind in
  let dd = Dd.Mdd.gate ctx ~n ~target:gate.target ~controls:(dd_controls gate) entries in
  let generic = Dd.Mdd.apply ctx dd state in
  let fast =
    Dd.Apply.apply ctx ~n ~target:gate.target
      ~controls:(dd_controls gate) entries state
  in
  check_bool (msg ^ " (exact edge equality)") true
    (Dd.Vdd.equal generic fast);
  fast

let run_gates ctx ~n gates =
  List.fold_left
    (fun state gate -> check_gate (Gate.name gate) ctx ~n gate state)
    (Dd.Vdd.basis ctx ~n 0) gates

let test_single_qubit () =
  let ctx = fresh_ctx () in
  let state = Dd.Vdd.basis ctx ~n:1 0 in
  let result = check_gate "h" ctx ~n:1 (Gate.h 0) state in
  check_float "H|0> low amplitude" 0.5
    (Cnum.mag2 (Dd.Vdd.amplitude result ~n:1 0))

let test_target_in_the_middle () =
  let ctx = fresh_ctx () in
  ignore
    (run_gates ctx ~n:5 [ Gate.h 2; Gate.t_gate 2; Gate.x 0; Gate.h 4; Gate.z 2 ])

let test_control_above_target () =
  let ctx = fresh_ctx () in
  ignore
    (run_gates ctx ~n:4
       [ Gate.h 3; Gate.cx 3 0; Gate.h 1; Gate.cz 3 1 ])

let test_target_above_control () =
  let ctx = fresh_ctx () in
  ignore
    (run_gates ctx ~n:4
       [ Gate.h 0; Gate.cx 0 3; Gate.t_gate 3; Gate.cx 1 2 ])

let test_negative_controls () =
  let ctx = fresh_ctx () in
  let nx target qubit =
    Gate.make ~controls:[ Gate.nctrl qubit ] Gate.X target
  in
  ignore (run_gates ctx ~n:3 [ Gate.h 1; nx 0 1; nx 2 0; Gate.h 0; nx 1 2 ])

let test_many_controls () =
  let ctx = fresh_ctx () in
  let ccx =
    Gate.make ~controls:[ Gate.ctrl 0; Gate.ctrl 3 ] Gate.X 1
  in
  let mixed =
    Gate.make
      ~controls:[ Gate.ctrl 2; Gate.nctrl 0; Gate.ctrl 4 ]
      Gate.H 1
  in
  ignore
    (run_gates ctx ~n:5 [ Gate.h 0; Gate.h 3; ccx; Gate.h 2; Gate.h 4; mixed ])

let test_rotation_gates () =
  let ctx = fresh_ctx () in
  ignore
    (run_gates ctx ~n:3
       [
         Gate.h 0;
         Gate.make (Gate.Rx 0.3) 1;
         Gate.make ~controls:[ Gate.ctrl 0 ] (Gate.Rz 1.1) 2;
         Gate.make (Gate.Phase 0.25) 0;
       ])

(* a pure single-target circuit through the fused engine must never touch
   the matrix-vector path: no gate DDs, no mul_mv traffic *)
let test_fast_path_bypasses_mul_mv () =
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx 6 in
  Dd_sim.Engine.run engine
    (Standard.random_circuit ~seed:3 ~qubits:6 ~gates:80 ());
  let stats = Dd_sim.Engine.stats engine in
  check_bool "all gates took the fast path" true
    (stats.Dd_sim.Sim_stats.fast_path_applies = 80
    && stats.Dd_sim.Sim_stats.generic_applies = 0);
  let mul_mv = Dd.Compute_table.stats ctx.Dd.Context.mul_mv in
  check_int "mul_mv never consulted" 0 mul_mv.Dd.Compute_table.lookups

let test_checkpoint_roundtrips_dispatch_counters () =
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.run engine
    (Standard.random_circuit ~seed:11 ~qubits:4 ~gates:40 ());
  let stats = Dd_sim.Engine.stats engine in
  check_bool "fast path exercised" true
    (stats.Dd_sim.Sim_stats.fast_path_applies > 0);
  let checkpoint =
    Dd_sim.Checkpoint.snapshot engine ~strategy:Dd_sim.Strategy.Sequential
      ~gate_index:40
  in
  let text = Dd_sim.Checkpoint.to_string checkpoint in
  let ctx = fresh_ctx () in
  let reloaded = Dd_sim.Checkpoint.of_string ctx text in
  check_int "fast_path_applies survives the round-trip"
    stats.Dd_sim.Sim_stats.fast_path_applies
    reloaded.Dd_sim.Checkpoint.stats.Dd_sim.Sim_stats.fast_path_applies;
  check_int "generic_applies survives the round-trip"
    stats.Dd_sim.Sim_stats.generic_applies
    reloaded.Dd_sim.Checkpoint.stats.Dd_sim.Sim_stats.generic_applies

(* -- QCheck: random structured gates on random states ------------------- *)

let gate_arb ~n =
  let open QCheck.Gen in
  let kind =
    oneof
      [
        oneofl [ Gate.X; Gate.Y; Gate.Z; Gate.H; Gate.S; Gate.T; Gate.Sx ];
        map (fun t -> Gate.Rx t) (float_range (-3.) 3.);
        map (fun t -> Gate.Ry t) (float_range (-3.) 3.);
        map (fun t -> Gate.Rz t) (float_range (-3.) 3.);
        map (fun t -> Gate.Phase t) (float_range (-3.) 3.);
      ]
  in
  let gen =
    kind >>= fun kind ->
    int_range 0 (n - 1) >>= fun target ->
    let others =
      List.filter (fun q -> q <> target) (List.init n Fun.id)
    in
    (* each non-target wire is a control with probability 1/3 *)
    let control q =
      int_range 0 2 >>= fun r ->
      if r > 0 then return None
      else bool >>= fun positive -> return (Some { Gate.qubit = q; positive })
    in
    let rec pick = function
      | [] -> return []
      | q :: rest ->
        control q >>= fun c ->
        pick rest >>= fun cs ->
        return (match c with None -> cs | Some c -> c :: cs)
    in
    pick others >>= fun controls -> return (Gate.make ~controls kind target)
  in
  QCheck.make ~print:Gate.name gen

let amplitude_gen =
  QCheck.Gen.(
    map2 (fun re im -> Cnum.make re im) (float_range (-1.) 1.)
      (float_range (-1.) 1.))

let state_arb n =
  QCheck.make
    ~print:(fun v ->
      String.concat "; " (Array.to_list (Array.map Cnum.to_string v)))
    QCheck.Gen.(array_size (return (1 lsl n)) amplitude_gen)

let prop_structured_apply_equals_generic =
  let n = 5 in
  QCheck.Test.make
    ~name:"structured apply = gate DD + Mdd.apply (exact edges)" ~count:200
    (QCheck.pair (gate_arb ~n) (state_arb n))
    (fun (gate, amplitudes) ->
      let ctx = fresh_ctx () in
      let state = Dd.Vdd.of_array ctx amplitudes in
      let entries = Gate.matrix gate.kind in
      let dd =
        Dd.Mdd.gate ctx ~n ~target:gate.target ~controls:(dd_controls gate)
          entries
      in
      let generic = Dd.Mdd.apply ctx dd state in
      let fast =
        Dd.Apply.apply ctx ~n ~target:gate.target
          ~controls:(dd_controls gate) entries state
      in
      Dd.Vdd.equal generic fast)

let prop_gate_sequences_match =
  (* whole circuits, both routes advancing the same state *)
  QCheck.Test.make ~name:"structured apply tracks circuits gate by gate"
    ~count:40
    (QCheck.make
       ~print:(fun seed -> Printf.sprintf "random_circuit seed %d" seed)
       QCheck.Gen.(0 -- 10000))
    (fun seed ->
      let n = 4 in
      let ctx = fresh_ctx () in
      let gates =
        Circuit.flatten
          (Standard.random_circuit ~seed ~qubits:n ~gates:25 ())
      in
      let state = ref (Dd.Vdd.basis ctx ~n 0) in
      List.for_all
        (fun (gate : Gate.t) ->
          let entries = Gate.matrix gate.kind in
          let dd =
            Dd.Mdd.gate ctx ~n ~target:gate.target
              ~controls:(dd_controls gate) entries
          in
          let generic = Dd.Mdd.apply ctx dd !state in
          let fast =
            Dd.Apply.apply ctx ~n ~target:gate.target
              ~controls:(dd_controls gate) entries !state
          in
          state := fast;
          Dd.Vdd.equal generic fast)
        gates)

let suite =
  [
    Alcotest.test_case "single_qubit" `Quick test_single_qubit;
    Alcotest.test_case "target_in_the_middle" `Quick
      test_target_in_the_middle;
    Alcotest.test_case "control_above_target" `Quick
      test_control_above_target;
    Alcotest.test_case "target_above_control" `Quick
      test_target_above_control;
    Alcotest.test_case "negative_controls" `Quick test_negative_controls;
    Alcotest.test_case "many_controls" `Quick test_many_controls;
    Alcotest.test_case "rotation_gates" `Quick test_rotation_gates;
    Alcotest.test_case "fast_path_bypasses_mul_mv" `Quick
      test_fast_path_bypasses_mul_mv;
    Alcotest.test_case "checkpoint_dispatch_counters" `Quick
      test_checkpoint_roundtrips_dispatch_counters;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [ prop_structured_apply_equals_generic; prop_gate_sequences_match ]
