(* The fault matrix: every injection point in lib/fault is armed in turn
   and the test proves the runtime either *detects* the corruption (the
   auditor or the checksum layer names it) or *recovers* bitwise-correctly
   (forced GC, checkpoint restore after allocation failure).

   Every test disarms in a [Fun.protect] finally so a failing assertion
   cannot leak an armed plan into the rest of the suite. *)

open Util

let with_fault ?seed plan body =
  Fault.arm ?seed plan;
  Fun.protect ~finally:Fault.disarm body

let run_engine ?strategy circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run ?strategy engine circuit;
  engine

(* detection = the audit names violations, or escalates past the ladder *)
let detected_by_audit engine =
  match Dd_sim.Engine.audit_now engine with
  | found -> found > 0
  | exception Dd_sim.Error.Error (Dd_sim.Error.Audit_failure _) -> true

let temp_path suffix =
  let path = Filename.temp_file "ddsim_fault" suffix in
  path

(* -- trigger semantics --------------------------------------------------- *)

let test_disarmed_is_inert () =
  check_bool "not armed" false (Fault.armed ());
  check_bool "probe is false" false (Fault.fire Fault.Weight_flip);
  check_int "nothing fired" 0 (Fault.fired_count Fault.Weight_flip)

let test_after_fires_exactly_once () =
  with_fault [ (Fault.Weight_flip, Fault.After 3) ] (fun () ->
      let fires =
        List.init 6 (fun _ -> Fault.fire Fault.Weight_flip)
      in
      check_bool "fires on the third probe only" true
        (fires = [ false; false; true; false; false; false ]);
      check_int "counted once" 1 (Fault.fired_count Fault.Weight_flip);
      check_bool "other points untouched" false
        (Fault.fire Fault.Io_garble))

let test_probability_replays_with_seed () =
  let record () =
    with_fault ~seed:9 [ (Fault.Table_poison, Fault.Probability 0.4) ]
      (fun () -> List.init 200 (fun _ -> Fault.fire Fault.Table_poison))
  in
  let a = record () and b = record () in
  check_bool "seeded stream replays identically" true (a = b);
  check_bool "some probes fired" true (List.exists Fun.id a);
  check_bool "some probes held" true (List.exists not a)

let test_flip_float_is_an_involution () =
  let x = 0.7071067811865476 in
  let flipped = Fault.flip_float x in
  check_bool "flip changes the value" true (flipped <> x);
  check_float "flip twice restores" x (Fault.flip_float flipped);
  check_bool "low bit is a small perturbation" true
    (Float.abs (Fault.flip_float ~bit:0 x -. x) < 1e-12)

(* -- weight corruption --------------------------------------------------- *)

let test_weight_flip_detected_and_repaired () =
  let engine = run_engine (Circuit.of_gates ~qubits:1 [ Gate.h 0 ]) in
  with_fault [ (Fault.Weight_flip, Fault.After 1) ] (fun () ->
      Dd_sim.Engine.apply_gate engine (Gate.t_gate 0);
      check_int "the flip actually fired" 1
        (Fault.fired_count Fault.Weight_flip);
      check_bool "audit detects the flipped weight" true
        (detected_by_audit engine));
  (* the fault fired exactly once, so the rebuild re-interns cleanly *)
  check_int "clean after the recovery ladder" 0
    (Dd_sim.Engine.audit_now engine)

let test_persistent_weight_flips_detected_at_cadence () =
  let circuit =
    Circuit.of_gates ~qubits:2
      [ Gate.h 0; Gate.t_gate 0; Gate.cx 0 1; Gate.t_gate 1 ]
  in
  with_fault [ (Fault.Weight_flip, Fault.Always) ] (fun () ->
      let engine = Dd_sim.Engine.create 2 in
      Dd_sim.Engine.set_audit engine 1;
      let detected =
        match Dd_sim.Engine.run engine circuit with
        | () ->
          let stats = Dd_sim.Engine.stats engine in
          stats.Dd_sim.Sim_stats.audit_violations > 0
        | exception Dd_sim.Error.Error (Dd_sim.Error.Audit_failure _) ->
          true
      in
      check_bool "cadenced audit sees persistent corruption" true detected)

(* -- compute-table corruption -------------------------------------------- *)

let test_table_poison_detected () =
  (* X;X;X on one qubit.  Gate by gate, the third application hits the
     apply cache entry populated by the first; in k:2 windows the second
     gate DD is a hit of the gate memo.  Either way the poisoned hit
     returns the dummy *)
  List.iter
    (fun strategy ->
      with_fault [ (Fault.Table_poison, Fault.Always) ] (fun () ->
          let engine =
            run_engine ?strategy
              (Circuit.of_gates ~qubits:1 [ Gate.x 0; Gate.x 0; Gate.x 0 ])
          in
          check_bool "a poisoned hit was served" true
            (Fault.fired_count Fault.Table_poison > 0);
          if strategy <> None then
            check_bool "by the gate memo" true
              (Dd.Compute_table.hits
                 (Dd_sim.Engine.context engine).Dd.Context.gate
              > 0);
          check_bool "audit detects the poisoned state" true
            (detected_by_audit engine)))
    [ None; Some (Dd_sim.Strategy.K_operations 2) ]

let test_skipped_sweep_detected_and_repaired () =
  (* gate by gate, and in k:3 windows, whose gate DDs leave entries in
     the gate memo *)
  List.iter
    (fun strategy ->
      let engine =
        run_engine ?strategy
          (Standard.random_circuit ~seed:21 ~qubits:5 ~gates:60 ())
      in
      with_fault [ (Fault.Table_skip_sweep, Fault.Always) ] (fun () ->
          let v_removed, _ = Dd_sim.Engine.collect_garbage engine in
          check_bool "the collection reclaimed nodes" true (v_removed > 0));
      let ctx = Dd_sim.Engine.context engine in
      let stale = Dd.Audit.check_tables ctx in
      check_bool "stale entries reported" true
        (List.exists
           (fun v -> Dd.Audit.class_of v = Dd.Audit.Table)
           stale);
      if strategy <> None then
        check_bool "the gate memo is named" true
          (List.exists
             (function
               | Dd.Audit.Stale_entry { table = "gate"; _ } -> true
               | _ -> false)
             stale);
      let found = Dd_sim.Engine.audit_now engine in
      check_bool "audit_now sees them too" true (found > 0);
      check_int "cache flush repaired the tables" 1
        (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.audit_repairs;
      check_int "clean after repair" 0
        (List.length (Dd.Audit.check_tables ctx)))
    [ None; Some (Dd_sim.Strategy.K_operations 3) ]

(* -- unique-table corruption --------------------------------------------- *)

let test_unique_drop_detected_and_rebuilt () =
  let engine =
    run_engine (Standard.random_circuit ~seed:23 ~qubits:4 ~gates:30 ())
  in
  let before = Dd.Vdd.to_array (Dd_sim.Engine.state engine) ~n:4 in
  with_fault [ (Fault.Unique_drop, Fault.Always) ] (fun () ->
      ignore (Dd_sim.Engine.collect_garbage engine);
      check_int "one reachable node was dropped" 1
        (Fault.fired_count Fault.Unique_drop));
  let ctx = Dd_sim.Engine.context engine in
  check_bool "canonicity walk finds the unrepresented node" true
    (List.exists
       (fun v ->
         match v with
         | Dd.Audit.Unrepresented_node _ -> true
         | _ -> false)
       (Dd.Audit.check_vector ctx (Dd_sim.Engine.state engine)
       @ Dd.Audit.check_tables ctx));
  let found = Dd_sim.Engine.audit_now engine in
  check_bool "audit_now detects" true (found > 0);
  check_int "rebuild repaired it" 1
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.audit_repairs;
  let after = Dd.Vdd.to_array (Dd_sim.Engine.state engine) ~n:4 in
  check_bool "state recovered bitwise" true (before = after)

(* -- adversarial GC ------------------------------------------------------ *)

let test_forced_gc_is_harmless () =
  let circuit = Standard.random_circuit ~seed:29 ~qubits:5 ~gates:50 () in
  let clean =
    Dd.Vdd.to_array (Dd_sim.Engine.state (run_engine circuit)) ~n:5
  in
  with_fault [ (Fault.Forced_gc, Fault.Always) ] (fun () ->
      let engine = run_engine circuit in
      check_bool "collections actually ran" true
        (Fault.fired_count Fault.Forced_gc > 0);
      (* a collection sweeps the weight-interning table, so canonical
         representatives — and hence low-order bits — may differ; the
         state must agree to interning tolerance and audit clean *)
      let stressed = Dd.Vdd.to_array (Dd_sim.Engine.state engine) ~n:5 in
      check_cnum_array "state unchanged under per-gate GC" clean stressed;
      check_int "and audits clean" 0 (Dd_sim.Engine.audit_now engine))

(* -- allocation failure + checkpoint restore ----------------------------- *)

let test_alloc_fail_recovered_from_checkpoint () =
  let circuit = Standard.random_circuit ~seed:31 ~qubits:4 ~gates:40 () in
  let gates = Circuit.flatten circuit in
  let expected =
    Dd.Vdd.to_array (Dd_sim.Engine.state (run_engine circuit)) ~n:4
  in
  let path = temp_path ".ckpt" in
  let split = 20 in
  let prefix = List.filteri (fun i _ -> i < split) gates in
  let rest = List.filteri (fun i _ -> i >= split) gates in
  let engine = Dd_sim.Engine.create 4 in
  List.iter (Dd_sim.Engine.apply_gate engine) prefix;
  Dd_sim.Checkpoint.save engine ~strategy:Dd_sim.Strategy.Sequential
    ~gate_index:split ~path;
  let crashed =
    with_fault [ (Fault.Alloc_fail, Fault.After 1) ] (fun () ->
        try
          List.iter (Dd_sim.Engine.apply_gate engine) rest;
          false
        with Out_of_memory -> true)
  in
  check_bool "allocation failure surfaced as Out_of_memory" true crashed;
  (* recovery: fresh context, restore the checkpoint, replay the tail *)
  let ctx = fresh_ctx () in
  let engine2 = Dd_sim.Engine.create ~context:ctx 4 in
  let cp, generation = Dd_sim.Checkpoint.load_latest ctx ~path in
  check_bool "current generation restored" true
    (generation = Dd_sim.Checkpoint.Current);
  let start = Dd_sim.Checkpoint.restore engine2 cp in
  check_int "resumes at the checkpoint gate" split start;
  List.iter (Dd_sim.Engine.apply_gate engine2) rest;
  let recovered = Dd.Vdd.to_array (Dd_sim.Engine.state engine2) ~n:4 in
  check_bool "replayed tail matches the clean run bitwise" true
    (expected = recovered);
  Sys.remove path;
  if Sys.file_exists (path ^ ".prev") then Sys.remove (path ^ ".prev")

(* -- artifact I/O corruption --------------------------------------------- *)

let corrupted_checkpoint_io fault =
  let engine = run_engine (Standard.bell ()) in
  let path = temp_path ".ckpt" in
  with_fault [ (fault, Fault.After 1) ] (fun () ->
      Dd_sim.Checkpoint.save engine ~strategy:Dd_sim.Strategy.Sequential
        ~gate_index:2 ~path;
      check_int "the write was corrupted" 1 (Fault.fired_count fault));
  let load_rejects =
    try
      ignore (Dd_sim.Checkpoint.load (fresh_ctx ()) ~path);
      false
    with Dd_sim.Error.Error (Dd_sim.Error.Invalid_checkpoint _) -> true
  in
  check_bool "load rejects with a structured error" true load_rejects;
  let report = Dd_sim.Fsck.check_file ~path in
  check_bool "fsck flags the file" false report.Dd_sim.Fsck.ok;
  check_bool "as a checkpoint" true
    (report.Dd_sim.Fsck.family = "checkpoint");
  Sys.remove path;
  if Sys.file_exists (path ^ ".prev") then Sys.remove (path ^ ".prev")

let test_truncated_write_detected () = corrupted_checkpoint_io Fault.Io_truncate
let test_garbled_write_detected () = corrupted_checkpoint_io Fault.Io_garble

(* -- clock skew ---------------------------------------------------------- *)

let test_clock_stays_monotone_under_skew () =
  with_fault ~seed:3 [ (Fault.Clock_skew, Fault.Probability 0.5) ] (fun () ->
      let last = ref (Obs.Clock.now ()) in
      for _ = 1 to 1000 do
        let t = Obs.Clock.now () in
        check_bool "clock never goes backwards" true (t >= !last);
        last := t
      done;
      check_bool "skew actually fired" true
        (Fault.fired_count Fault.Clock_skew > 0))

let suite =
  [
    Alcotest.test_case "disarmed probes are inert" `Quick
      test_disarmed_is_inert;
    Alcotest.test_case "After n fires exactly once" `Quick
      test_after_fires_exactly_once;
    Alcotest.test_case "Probability replays with its seed" `Quick
      test_probability_replays_with_seed;
    Alcotest.test_case "flip_float is an involution" `Quick
      test_flip_float_is_an_involution;
    Alcotest.test_case "weight flip: detected, then repaired" `Quick
      test_weight_flip_detected_and_repaired;
    Alcotest.test_case "persistent weight flips: detected at cadence" `Quick
      test_persistent_weight_flips_detected_at_cadence;
    Alcotest.test_case "table poison: detected" `Quick
      test_table_poison_detected;
    Alcotest.test_case "skipped sweep: detected, tables repaired" `Quick
      test_skipped_sweep_detected_and_repaired;
    Alcotest.test_case "unique drop: detected, rebuilt bitwise" `Quick
      test_unique_drop_detected_and_rebuilt;
    Alcotest.test_case "forced GC: bitwise harmless" `Quick
      test_forced_gc_is_harmless;
    Alcotest.test_case "alloc failure: recovered from checkpoint" `Quick
      test_alloc_fail_recovered_from_checkpoint;
    Alcotest.test_case "truncated write: detected at rest" `Quick
      test_truncated_write_detected;
    Alcotest.test_case "garbled write: detected at rest" `Quick
      test_garbled_write_detected;
    Alcotest.test_case "clock skew: clamp keeps time monotone" `Quick
      test_clock_stays_monotone_under_skew;
  ]
