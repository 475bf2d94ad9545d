open Util

let test_collect_frees_dead_nodes () =
  let ctx = fresh_ctx () in
  (* build several throwaway states, keep only one *)
  let keep = Dd.Vdd.basis ctx ~n:6 21 in
  for i = 0 to 30 do
    ignore (Dd.Vdd.basis ctx ~n:6 i)
  done;
  let live_before = Dd.Context.live_v_nodes ctx in
  let removed_v, _removed_m =
    Dd.Context.collect ctx ~v_roots:[ keep ] ~m_roots:[]
  in
  check_bool "something was reclaimed" true (removed_v > 0);
  check_int "live = before - removed" (live_before - removed_v)
    (Dd.Context.live_v_nodes ctx);
  check_int "rooted state intact" 6 (Dd.Vdd.node_count keep)

let test_collect_keeps_rooted_matrix () =
  let ctx = fresh_ctx () in
  let keep = Dd.Mdd.gate ctx ~n:5 ~target:2 (Gate.matrix Gate.H) in
  ignore (Dd.Mdd.gate ctx ~n:5 ~target:0 (Gate.matrix Gate.X));
  ignore (Dd.Mdd.identity ctx 5);
  let _, removed_m = Dd.Context.collect ctx ~v_roots:[] ~m_roots:[ keep ] in
  check_bool "dead matrices reclaimed" true (removed_m > 0);
  (* the kept matrix still works *)
  let v = Dd.Vdd.basis ctx ~n:5 0 in
  let w = Dd.Mdd.apply ctx keep v in
  check_float "H still acts correctly" 0.5
    (Dd_complex.Cnum.mag2 (Dd.Vdd.amplitude ctx w ~n:5 4))

let test_operations_after_collect () =
  (* hash-consing must still be canonical after sweeping *)
  let ctx = fresh_ctx () in
  let a = Dd.Vdd.basis ctx ~n:4 3 in
  ignore (Dd.Vdd.basis ctx ~n:4 9);
  ignore (Dd.Context.collect ctx ~v_roots:[ a ] ~m_roots:[]);
  let b = Dd.Vdd.basis ctx ~n:4 3 in
  check_bool "rebuilding a live state reuses it canonically" true
    (Dd.Vdd.equal a b);
  let again = Dd.Vdd.basis ctx ~n:4 9 in
  check_cnum "rebuilt dead state is correct" Dd_complex.Cnum.one
    (Dd.Vdd.amplitude ctx again ~n:4 9)

let test_engine_collect () =
  let engine = Dd_sim.Engine.create 8 in
  Dd_sim.Engine.run engine
    (Standard.random_circuit ~seed:5 ~qubits:8 ~gates:150 ());
  let ctx = Dd_sim.Engine.context engine in
  let live_before = Dd.Context.live_v_nodes ctx in
  let reference = state_array engine ~n:8 in
  let removed_v, _ = Dd_sim.Engine.collect_garbage engine in
  check_bool "intermediate states reclaimed" true (removed_v > 0);
  check_bool "live nodes dropped" true
    (Dd.Context.live_v_nodes ctx < live_before);
  (* state unchanged and engine fully functional afterwards *)
  check_cnum_array "state intact after GC" reference
    (state_array engine ~n:8);
  Dd_sim.Engine.apply_gate engine (Gate.h 0);
  check_float "still unitary after GC" 1.
    (Dd.Measure.norm2 ctx (Dd_sim.Engine.state engine))

let test_gc_mid_simulation_equivalence () =
  (* interleaving GC with simulation must not change the result *)
  let circuit = Standard.random_circuit ~seed:77 ~qubits:6 ~gates:60 () in
  let gates = Circuit.flatten circuit in
  let plain = Dd_sim.Engine.create 6 in
  List.iter (Dd_sim.Engine.apply_gate plain) gates;
  let collected = Dd_sim.Engine.create 6 in
  List.iteri
    (fun i gate ->
      Dd_sim.Engine.apply_gate collected gate;
      if i mod 10 = 9 then ignore (Dd_sim.Engine.collect_garbage collected))
    gates;
  check_cnum_array "same state with and without GC"
    (state_array plain ~n:6)
    (state_array collected ~n:6)

let test_collect_keeps_caches_warm () =
  (* generation-aware sweeping: a compute-table entry whose operands and
     result survive the collection must still hit afterwards.  The
     identity levels below the target take no entry (Mdd.apply skips
     them), so the entries that stay warm are the ones whose results
     the collection keeps: the product is a root too. *)
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx 4 in
  let gate = Dd_sim.Engine.gate_dd engine (Gate.h 2) in
  let v = Dd_sim.Engine.state engine in
  let r = Dd.Mdd.apply ctx gate v in
  ignore (Dd.Context.collect ctx ~v_roots:[ v; r ] ~m_roots:[ gate ]);
  let stats () = Dd.Compute_table.stats ctx.Dd.Context.mul_mv in
  check_bool "entries survive the collection" true
    ((stats ()).Dd.Compute_table.entries > 0);
  let hits_before = (stats ()).Dd.Compute_table.hits in
  ignore (Dd.Mdd.apply ctx gate v);
  check_bool "repeating the multiplication still hits after GC" true
    ((stats ()).Dd.Compute_table.hits > hits_before)

let test_auto_gc_cache_hit_rate () =
  (* a guarded run that actually collects must keep a non-zero hit rate:
     wholesale cache flushing on every collection would show up here *)
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx 6 in
  let guard = Dd_sim.Guard.make ~gc_high_water:64 () in
  Dd_sim.Engine.run ~guard engine
    (Standard.random_circuit ~seed:13 ~qubits:6 ~gates:120 ());
  let stats = Dd_sim.Engine.stats engine in
  check_bool "auto-GC actually fired" true
    (stats.Dd_sim.Sim_stats.auto_gcs > 0);
  check_bool "collections recorded in kernel stats" true
    ((Dd.Context.gc_stats ctx).Dd.Context.collections > 0);
  check_bool "gc pause accounted" true
    (stats.Dd_sim.Sim_stats.gc_pause_seconds >= 0.);
  (* sequential gates reach the state through Mdd.apply, so mul_mv is
     the table that must stay warm *)
  check_bool "compute caches stayed warm across collections" true
    (Dd.Compute_table.hit_rate ctx.Dd.Context.mul_mv > 0.)

let test_identity_cache_survives_collect () =
  let ctx = fresh_ctx () in
  let identity = Dd.Mdd.identity ctx 4 in
  let cached_before = Hashtbl.length ctx.Dd.Context.identity_cache in
  check_bool "identity is cached" true (cached_before > 0);
  (* no explicit roots: the identity cache itself roots its entries *)
  ignore (Dd.Context.collect ctx ~v_roots:[] ~m_roots:[]);
  check_int "identity cache entries survive" cached_before
    (Hashtbl.length ctx.Dd.Context.identity_cache);
  check_bool "cached identity edge is still canonical" true
    (Dd.Mdd.equal identity (Dd.Mdd.identity ctx 4))

let test_collect_empty_roots () =
  let ctx = fresh_ctx () in
  ignore (Dd.Vdd.basis ctx ~n:3 1);
  ignore (Dd.Context.collect ctx ~v_roots:[] ~m_roots:[]);
  check_int "everything reclaimed with no roots" 0
    (Dd.Context.live_v_nodes ctx)

let suite =
  [
    Alcotest.test_case "collect_frees_dead" `Quick
      test_collect_frees_dead_nodes;
    Alcotest.test_case "collect_keeps_matrix" `Quick
      test_collect_keeps_rooted_matrix;
    Alcotest.test_case "operations_after_collect" `Quick
      test_operations_after_collect;
    Alcotest.test_case "engine_collect" `Quick test_engine_collect;
    Alcotest.test_case "gc_mid_simulation" `Quick
      test_gc_mid_simulation_equivalence;
    Alcotest.test_case "collect_empty_roots" `Quick test_collect_empty_roots;
    Alcotest.test_case "caches_stay_warm" `Quick
      test_collect_keeps_caches_warm;
    Alcotest.test_case "auto_gc_hit_rate" `Quick
      test_auto_gc_cache_hit_rate;
    Alcotest.test_case "identity_cache_survives" `Quick
      test_identity_cache_survives_collect;
  ]
