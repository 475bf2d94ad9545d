(* The invariant auditor: clean states audit clean, seeded corruptions are
   found and named, the recovery ladder repairs what it claims to, and the
   disabled per-gate probe allocates nothing. *)

open Dd_complex
open Util

let run_engine circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run engine circuit;
  engine

let test_clean_state_audits_clean () =
  let engine =
    run_engine (Standard.random_circuit ~seed:5 ~qubits:5 ~gates:60 ())
  in
  let ctx = Dd_sim.Engine.context engine in
  check_int "no vector violations" 0
    (List.length
       (Dd.Audit.check_vector ctx (Dd_sim.Engine.state engine)));
  check_int "no table violations" 0 (List.length (Dd.Audit.check_tables ctx))

let test_audit_now_clean () =
  let engine =
    run_engine (Standard.random_circuit ~seed:7 ~qubits:4 ~gates:30 ())
  in
  check_int "audit_now finds nothing" 0 (Dd_sim.Engine.audit_now engine);
  let stats = Dd_sim.Engine.stats engine in
  check_int "audit counted" 1 stats.Dd_sim.Sim_stats.audits_run;
  check_int "no violations counted" 0
    stats.Dd_sim.Sim_stats.audit_violations

let test_norm_drift_detected () =
  let engine = run_engine (Standard.bell ()) in
  let ctx = Dd_sim.Engine.context engine in
  (* scale the state by 2: canonical structure intact, norm badly off *)
  Dd_sim.Engine.set_state engine
    (Dd.Vdd.scale ctx (Cnum.of_float 2.) (Dd_sim.Engine.state engine));
  let violations =
    Dd.Audit.check_vector ~norm_tol:1e-6 ctx (Dd_sim.Engine.state engine)
  in
  check_bool "norm drift reported" true
    (List.exists
       (fun v -> Dd.Audit.class_of v = Dd.Audit.Norm)
       violations)

let test_norm_drift_repaired () =
  let engine = run_engine (Standard.bell ()) in
  let ctx = Dd_sim.Engine.context engine in
  let expected = state_array engine ~n:2 in
  Dd_sim.Engine.set_state engine
    (Dd.Vdd.scale ctx (Cnum.of_float 2.) (Dd_sim.Engine.state engine));
  let found = Dd_sim.Engine.audit_now engine in
  check_bool "drift found" true (found > 0);
  let stats = Dd_sim.Engine.stats engine in
  check_int "repair counted" 1 stats.Dd_sim.Sim_stats.audit_repairs;
  check_cnum_array "state renormalised back" expected
    (state_array engine ~n:2);
  check_int "clean after repair" 0 (Dd_sim.Engine.audit_now engine)

(* A weight is a tag the context's complex table handed out; a record
   forged with any other int is reported without reading its value, and
   since it has no value the recovery ladder cannot repair it: the
   engine raises the structured failure. *)
let test_foreign_weight_tag_detected () =
  let engine = run_engine (Standard.ghz 3) in
  let ctx = Dd_sim.Engine.context engine in
  let state = Dd_sim.Engine.state engine in
  let forged =
    { state with Dd.Types.vw = Ctable.size ctx.Dd.Context.ctable + 7 }
  in
  check_bool "foreign tag reported" true
    (List.exists
       (function Dd.Audit.Uninterned_weight _ -> true | _ -> false)
       (Dd.Audit.check_vector ~norm_tol:1e-6 ctx forged));
  Dd_sim.Engine.set_state engine forged;
  check_bool "unrepairable: structured audit failure" true
    (match Dd_sim.Engine.audit_now engine with
    | _ -> false
    | exception Dd_sim.Error.Error (Dd_sim.Error.Audit_failure _) -> true)

let test_norm2_uncached_matches () =
  let engine =
    run_engine (Standard.random_circuit ~seed:9 ~qubits:5 ~gates:40 ())
  in
  let arr = state_array engine ~n:5 in
  let dense = Array.fold_left (fun a z -> a +. Cnum.mag2 z) 0. arr in
  check_float "norm2 agrees with dense sum" dense
    (Dd.Audit.norm2_uncached (Dd_sim.Engine.context engine)
       (Dd_sim.Engine.state engine))

let test_rebuild_preserves_amplitudes () =
  let engine =
    run_engine (Standard.random_circuit ~seed:13 ~qubits:5 ~gates:50 ())
  in
  let ctx = Dd_sim.Engine.context engine in
  let before = state_array engine ~n:5 in
  let rebuilt = Dd.Audit.rebuild_vector ctx (Dd_sim.Engine.state engine) in
  check_cnum_array "rebuild is semantics-preserving" before
    (Dd.Vdd.to_array ctx rebuilt ~n:5);
  check_int "rebuilt DD audits clean" 0
    (List.length (Dd.Audit.check_vector ctx rebuilt))

let test_audit_cadence_in_run () =
  let circuit = Standard.random_circuit ~seed:17 ~qubits:4 ~gates:20 () in
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.set_audit engine 4;
  Dd_sim.Engine.run engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  check_bool "cadence produced audits" true
    (stats.Dd_sim.Sim_stats.audits_run >= 4);
  check_int "all clean" 0 stats.Dd_sim.Sim_stats.audit_violations

let test_set_audit_rejects_bad_parameters () =
  let engine = Dd_sim.Engine.create 2 in
  let rejects f =
    try
      f ();
      false
    with Dd_sim.Error.Error (Dd_sim.Error.Invalid_parameter _) -> true
  in
  check_bool "negative cadence rejected" true
    (rejects (fun () -> Dd_sim.Engine.set_audit engine (-1)));
  check_bool "zero tolerance rejected" true
    (rejects (fun () -> Dd_sim.Engine.set_audit engine ~tolerance:0. 4));
  check_bool "nan tolerance rejected" true
    (rejects (fun () ->
         Dd_sim.Engine.set_audit engine ~tolerance:Float.nan 4))

(* The claim in engine.mli: with auditing off, the per-gate probe is one
   load and one branch — no allocation.  Warm up, then measure minor-heap
   words across 100k probes. *)
let test_disabled_probe_allocates_nothing () =
  let engine = Dd_sim.Engine.create 3 in
  check_int "audit disabled by default" 0 (Dd_sim.Engine.audit_every engine);
  let probe () =
    for gate = 1 to 100_000 do
      if Dd_sim.Engine.audit_due engine ~gate then assert false
    done
  in
  probe ();
  (* warmed: closures allocated, code paths traced *)
  let before = Gc.minor_words () in
  probe ();
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "disabled probe allocated %.0f words" allocated)
    true
    (allocated < 256.)

let suite =
  [
    Alcotest.test_case "clean state audits clean" `Quick
      test_clean_state_audits_clean;
    Alcotest.test_case "audit_now on a clean engine" `Quick
      test_audit_now_clean;
    Alcotest.test_case "norm drift detected" `Quick test_norm_drift_detected;
    Alcotest.test_case "norm drift repaired" `Quick test_norm_drift_repaired;
    Alcotest.test_case "foreign weight tag detected" `Quick
      test_foreign_weight_tag_detected;
    Alcotest.test_case "norm2_uncached matches dense" `Quick
      test_norm2_uncached_matches;
    Alcotest.test_case "rebuild preserves amplitudes" `Quick
      test_rebuild_preserves_amplitudes;
    Alcotest.test_case "audit cadence inside run" `Quick
      test_audit_cadence_in_run;
    Alcotest.test_case "set_audit validates parameters" `Quick
      test_set_audit_rejects_bad_parameters;
    Alcotest.test_case "disabled probe is allocation-free" `Quick
      test_disabled_probe_allocates_nothing;
  ]
