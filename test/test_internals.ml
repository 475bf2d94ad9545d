(* Internals: context statistics, cache behaviour, edge heights,
   pretty-printers. *)

open Util

let test_heights () =
  let ctx = fresh_ctx () in
  check_int "basis height" 5 (Dd.Types.v_height (Dd.Vdd.basis ctx ~n:5 3));
  check_int "zero edge height" 0 (Dd.Types.v_height Dd.Vdd.zero);
  check_int "identity height" 4
    ((Dd.Mdd.identity ctx 4).Dd.Types.mt.Dd.Types.level + 1)

let mul_mv_stats ctx = Dd.Compute_table.stats ctx.Dd.Context.mul_mv

let test_cache_counters_move () =
  (* single-target gates in sequential mode go through the structured-apply
     kernel: the apply table must move and mul_mv must stay untouched *)
  let ctx = fresh_ctx () in
  Dd.Context.reset_stats ctx;
  let engine = Dd_sim.Engine.create ~context:ctx 5 in
  Dd_sim.Engine.run engine (Standard.ghz 5);
  let s = Dd.Compute_table.stats ctx.Dd.Context.apply_v in
  check_bool "apply cache was exercised" true
    (s.Dd.Compute_table.lookups > 0);
  check_int "hits + misses = lookups" s.Dd.Compute_table.lookups
    (s.Dd.Compute_table.hits + s.Dd.Compute_table.misses);
  check_int "fused run never consults mul_mv" 0
    (mul_mv_stats ctx).Dd.Compute_table.lookups;
  check_bool "nodes were created" true (Dd.Context.v_unique_size ctx > 0);
  (* generic A/B run: same circuit through explicit gate DDs *)
  let ctx_g = fresh_ctx () in
  Dd.Context.reset_stats ctx_g;
  let generic = Dd_sim.Engine.create ~context:ctx_g 5 in
  Dd_sim.Engine.set_fused_apply generic false;
  Dd_sim.Engine.run generic (Standard.ghz 5);
  check_bool "generic run exercises mul_mv" true
    ((Dd.Compute_table.stats ctx_g.Dd.Context.mul_mv).Dd.Compute_table.lookups
    > 0)

let test_cache_hits_on_repetition () =
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx 4 in
  let gate = Dd_sim.Engine.gate_dd engine (Gate.h 2) in
  let v = Dd_sim.Engine.state engine in
  ignore (Dd.Mdd.apply ctx gate v);
  let before = (mul_mv_stats ctx).Dd.Compute_table.hits in
  ignore (Dd.Mdd.apply ctx gate v);
  let after = (mul_mv_stats ctx).Dd.Compute_table.hits in
  check_bool "repeating a multiplication hits the cache" true (after > before)

let test_clear_caches_forgets () =
  let ctx = fresh_ctx () in
  let engine = Dd_sim.Engine.create ~context:ctx 4 in
  let gate = Dd_sim.Engine.gate_dd engine (Gate.h 2) in
  let v = Dd_sim.Engine.state engine in
  ignore (Dd.Mdd.apply ctx gate v);
  Dd.Context.clear_compute_caches ctx;
  let misses_before = (mul_mv_stats ctx).Dd.Compute_table.misses in
  ignore (Dd.Mdd.apply ctx gate v);
  let misses_after = (mul_mv_stats ctx).Dd.Compute_table.misses in
  check_bool "cleared cache misses again" true (misses_after > misses_before)

let test_pp_stats_renders () =
  let ctx = fresh_ctx () in
  ignore (Dd.Vdd.basis ctx ~n:3 1);
  let text = Format.asprintf "%a" Dd.Context.pp_stats ctx in
  check_bool "mentions node counts" true (String.length text > 20)

let test_sim_stats_copy_independent () =
  let stats = Dd_sim.Sim_stats.create () in
  stats.Dd_sim.Sim_stats.mat_vec_mults <- 7;
  let snapshot = Dd_sim.Sim_stats.copy stats in
  stats.Dd_sim.Sim_stats.mat_vec_mults <- 99;
  check_int "copy is a snapshot" 7 snapshot.Dd_sim.Sim_stats.mat_vec_mults

let test_sim_stats_pp () =
  let stats = Dd_sim.Sim_stats.create () in
  stats.Dd_sim.Sim_stats.mat_mat_mults <- 3;
  let text = Format.asprintf "%a" Dd_sim.Sim_stats.pp stats in
  check_bool "pp mentions mat-mat" true
    (let rec has i =
       i + 7 <= String.length text
       && (String.sub text i 7 = "mat-mat" || has (i + 1))
     in
     has 0)

let test_unique_sizes_monotone () =
  let ctx = fresh_ctx () in
  let a = Dd.Context.v_unique_size ctx in
  ignore (Dd.Vdd.basis ctx ~n:4 7);
  let b = Dd.Context.v_unique_size ctx in
  ignore (Dd.Vdd.basis ctx ~n:4 7);
  let c = Dd.Context.v_unique_size ctx in
  check_bool "creation grows the table" true (b > a);
  check_int "hash-consing keeps it stable" b c

let test_engine_rng_deterministic () =
  let run seed =
    let engine = Dd_sim.Engine.create ~seed 3 in
    Dd_sim.Engine.run engine (Standard.ghz 3);
    Dd_sim.Engine.measure_all engine
  in
  check_int "same seed, same outcome" (run 5) (run 5)

let suite =
  [
    Alcotest.test_case "heights" `Quick test_heights;
    Alcotest.test_case "cache_counters" `Quick test_cache_counters_move;
    Alcotest.test_case "cache_hits" `Quick test_cache_hits_on_repetition;
    Alcotest.test_case "clear_caches" `Quick test_clear_caches_forgets;
    Alcotest.test_case "pp_stats" `Quick test_pp_stats_renders;
    Alcotest.test_case "sim_stats_copy" `Quick
      test_sim_stats_copy_independent;
    Alcotest.test_case "sim_stats_pp" `Quick test_sim_stats_pp;
    Alcotest.test_case "unique_sizes" `Quick test_unique_sizes_monotone;
    Alcotest.test_case "rng_deterministic" `Quick
      test_engine_rng_deterministic;
  ]
