open Util

(* The resilience layer: budget-governed runs must degrade gracefully —
   never silently wrong.  A guarded run that completes must produce exactly
   the state an unguarded run produces; a guarded run that cannot complete
   must abort with a structured error at a resumable point. *)

let final_array engine =
  Dd.Vdd.to_array
    (Dd_sim.Engine.state engine)
    ~n:(Dd_sim.Engine.qubits engine)

let run_plain ?strategy circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run ?strategy engine circuit;
  engine

(* -- graceful fallback under a matrix budget ----------------------------- *)

let test_qft_k16_matrix_budget_falls_back () =
  (* the acceptance scenario: an 8-qubit QFT under k:16 with a 64-node
     combined-matrix budget must complete via sequential fallback and agree
     with the unguarded sequential run *)
  let circuit = Qft.circuit 8 in
  let strategy = Dd_sim.Strategy.K_operations 16 in
  let guard = Dd_sim.Guard.make ~max_matrix_nodes:64 () in
  let guarded = Dd_sim.Engine.create 8 in
  Dd_sim.Engine.run ~strategy ~guard guarded circuit;
  let reference = run_plain circuit in
  check_cnum_array "guarded k:16 equals unguarded sequential"
    (final_array reference) (final_array guarded);
  let stats = Dd_sim.Engine.stats guarded in
  check_bool "fallbacks were taken" true
    (stats.Dd_sim.Sim_stats.fallbacks > 0)

let test_max_size_matrix_budget_falls_back () =
  let circuit = Standard.random_circuit ~seed:31 ~qubits:6 ~gates:60 () in
  let strategy = Dd_sim.Strategy.Max_size 4096 in
  let guard = Dd_sim.Guard.make ~max_matrix_nodes:24 () in
  let guarded = Dd_sim.Engine.create 6 in
  Dd_sim.Engine.run ~strategy ~guard guarded circuit;
  let reference = run_plain circuit in
  check_cnum_array "guarded size:4096 equals unguarded sequential"
    (final_array reference) (final_array guarded);
  check_bool "fallbacks were taken" true
    ((Dd_sim.Engine.stats guarded).Dd_sim.Sim_stats.fallbacks > 0)

let test_tiny_budget_degrades_to_sequential () =
  (* a 1-node budget rejects every partial product: every window falls
     back, so the run does one mat-vec per gate, like Sequential *)
  let gates = 20 in
  let circuit = Standard.random_circuit ~seed:5 ~qubits:4 ~gates () in
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.run
    ~strategy:(Dd_sim.Strategy.K_operations 4)
    ~guard:(Dd_sim.Guard.make ~max_matrix_nodes:1 ())
    engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  check_int "one mat-vec per gate" gates stats.Dd_sim.Sim_stats.mat_vec_mults;
  let reference = run_plain circuit in
  check_cnum_array "state still exact" (final_array reference)
    (final_array engine)

(* -- structured aborts --------------------------------------------------- *)

let test_deadline_zero_aborts_at_gate_zero () =
  let engine = Dd_sim.Engine.create 3 in
  let guard = Dd_sim.Guard.make ~deadline:0. () in
  match Dd_sim.Engine.run ~guard engine (Standard.ghz 3) with
  | () -> Alcotest.fail "deadline 0 did not abort"
  | exception
      Dd_sim.Error.Error
        (Dd_sim.Error.Budget_exhausted { kind = Dd_sim.Error.Deadline; site; _ })
    ->
    check_int "aborted before the first gate" 0
      site.Dd_sim.Error.gate_index

let test_live_node_budget_aborts () =
  let circuit = Standard.random_circuit ~seed:3 ~qubits:6 ~gates:30 () in
  let engine = Dd_sim.Engine.create 6 in
  let guard = Dd_sim.Guard.make ~max_live_nodes:1 () in
  check_bool "live-node budget exhausted" true
    (match Dd_sim.Engine.run ~guard engine circuit with
    | () -> false
    | exception
        Dd_sim.Error.Error
          (Dd_sim.Error.Budget_exhausted
             { kind = Dd_sim.Error.Live_nodes; _ }) ->
      true)

let test_auto_gc_triggers () =
  let circuit = Standard.random_circuit ~seed:17 ~qubits:5 ~gates:40 () in
  let engine = Dd_sim.Engine.create 5 in
  let guard = Dd_sim.Guard.make ~gc_high_water:8 () in
  Dd_sim.Engine.run ~guard engine circuit;
  check_bool "automatic collections happened" true
    ((Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.auto_gcs > 0);
  let reference = run_plain circuit in
  check_cnum_array "collection never changes the state"
    (final_array reference) (final_array engine)

(* -- norm drift ---------------------------------------------------------- *)

let test_norm_drift_renormalized () =
  let engine = Dd_sim.Engine.create 2 in
  let ctx = Dd_sim.Engine.context engine in
  (* inject drift: a state of norm 2 *)
  Dd_sim.Engine.set_state engine
    (Dd.Vdd.scale ctx
       (Dd_complex.Cnum.of_float 2.)
       (Dd_sim.Engine.state engine));
  let guard = Dd_sim.Guard.make ~norm_tolerance:0.1 () in
  Dd_sim.Engine.run ~guard engine (Standard.bell ());
  let stats = Dd_sim.Engine.stats engine in
  check_bool "a renormalization was applied" true
    (stats.Dd_sim.Sim_stats.renormalizations > 0);
  check_float "final norm is 1" 1.
    (Dd.Measure.norm2 ctx (Dd_sim.Engine.state engine));
  let reference = run_plain (Standard.bell ()) in
  check_cnum_array "renormalized run equals clean run"
    (final_array reference) (final_array engine)

let test_norm_collapse_is_structured_abort () =
  let engine = Dd_sim.Engine.create 2 in
  let ctx = Dd_sim.Engine.context engine in
  (* an infinite amplitude has no finite norm: renormalization is
     impossible and must be reported, not papered over *)
  Dd_sim.Engine.set_state engine
    (Dd.Vdd.scale ctx
       (Dd_complex.Cnum.of_float infinity)
       (Dd_sim.Engine.state engine));
  let guard = Dd_sim.Guard.make ~norm_tolerance:0.1 () in
  check_bool "renormalization failure is structured" true
    (match Dd_sim.Engine.run ~guard engine (Standard.bell ()) with
    | () -> false
    | exception
        Dd_sim.Error.Error (Dd_sim.Error.Renormalization_failed _) ->
      true)

(* -- the disabled guard costs nothing and changes nothing ---------------- *)

let test_guard_none_is_identity () =
  let circuit = Standard.random_circuit ~seed:8 ~qubits:5 ~gates:30 () in
  let plain = run_plain ~strategy:(Dd_sim.Strategy.K_operations 4) circuit in
  let guarded = Dd_sim.Engine.create 5 in
  Dd_sim.Engine.run
    ~strategy:(Dd_sim.Strategy.K_operations 4)
    ~guard:Dd_sim.Guard.none guarded circuit;
  check_cnum_array "Guard.none run is bit-identical"
    (final_array plain) (final_array guarded);
  let p = Dd_sim.Engine.stats plain
  and g = Dd_sim.Engine.stats guarded in
  check_int "same mat-vec count" p.Dd_sim.Sim_stats.mat_vec_mults
    g.Dd_sim.Sim_stats.mat_vec_mults;
  check_int "same mat-mat count" p.Dd_sim.Sim_stats.mat_mat_mults
    g.Dd_sim.Sim_stats.mat_mat_mults;
  check_int "no fallbacks" 0 g.Dd_sim.Sim_stats.fallbacks;
  check_int "no auto gcs" 0 g.Dd_sim.Sim_stats.auto_gcs;
  check_int "no renormalizations" 0 g.Dd_sim.Sim_stats.renormalizations

(* -- checkpoint / resume ------------------------------------------------- *)

let samples engine count = List.init count (fun _ -> Dd_sim.Engine.sample engine)

let test_checkpoint_resume_matches_uninterrupted () =
  (* the acceptance scenario: interrupt a Grover run mid-flight, resume in
     a fresh context, and demand identical amplitudes AND identical
     measurement samples (same RNG stream) as the uninterrupted run *)
  let circuit = Grover.circuit ~n:7 ~marked:5 () in
  let strategy = Dd_sim.Strategy.K_operations 4 in
  let uninterrupted = Dd_sim.Engine.create ~seed:42 7 in
  Dd_sim.Engine.run ~strategy uninterrupted circuit;
  let flat = Circuit.flatten circuit in
  let cut = List.length flat / 2 in
  let prefix =
    Circuit.of_gates ~qubits:7 (List.filteri (fun i _ -> i < cut) flat)
  in
  let interrupted = Dd_sim.Engine.create ~seed:42 7 in
  Dd_sim.Engine.run ~strategy interrupted prefix;
  let path = Filename.temp_file "ddsim" ".ckpt" in
  Dd_sim.Checkpoint.save interrupted ~strategy ~gate_index:cut ~path;
  (* resume in a brand-new context with a different seed: everything that
     matters must come from the checkpoint *)
  let resumed = Dd_sim.Engine.create ~seed:7 7 in
  let checkpoint =
    Dd_sim.Checkpoint.load (Dd_sim.Engine.context resumed) ~path
  in
  Sys.remove path;
  check_int "checkpoint remembers the cut" cut
    checkpoint.Dd_sim.Checkpoint.gate_index;
  let start_gate = Dd_sim.Checkpoint.restore resumed checkpoint in
  Dd_sim.Engine.run ~strategy:checkpoint.Dd_sim.Checkpoint.strategy
    ~start_gate resumed circuit;
  check_cnum_array "resumed state equals uninterrupted state"
    (final_array uninterrupted) (final_array resumed);
  check_bool "identical measurement samples" true
    (samples uninterrupted 20 = samples resumed 20)

let test_abort_writes_resumable_checkpoint () =
  (* a structured abort must leave a checkpoint behind when one is
     configured, and resuming from it must complete the run exactly *)
  let circuit = Standard.random_circuit ~seed:23 ~qubits:5 ~gates:30 () in
  let path = Filename.temp_file "ddsim" ".ckpt" in
  let strategy = Dd_sim.Strategy.Sequential in
  let written = ref 0 in
  let on_checkpoint engine ~gate_index =
    incr written;
    Dd_sim.Checkpoint.save engine ~strategy ~gate_index ~path
  in
  let engine = Dd_sim.Engine.create 5 in
  let guard = Dd_sim.Guard.make ~deadline:0. () in
  (match
     Dd_sim.Engine.run ~strategy ~guard ~on_checkpoint:(on_checkpoint engine)
       engine circuit
   with
  | () -> Alcotest.fail "expected a deadline abort"
  | exception Dd_sim.Error.Error (Dd_sim.Error.Budget_exhausted _) -> ());
  let resumed = Dd_sim.Engine.create 5 in
  let checkpoint =
    Dd_sim.Checkpoint.load (Dd_sim.Engine.context resumed) ~path
  in
  let start_gate = Dd_sim.Checkpoint.restore resumed checkpoint in
  Dd_sim.Engine.run ~strategy ~start_gate
    ~on_checkpoint:(on_checkpoint resumed) resumed circuit;
  Sys.remove path;
  if Sys.file_exists (path ^ ".prev") then Sys.remove (path ^ ".prev");
  let reference = run_plain circuit in
  check_cnum_array "resumed-after-abort equals clean run"
    (final_array reference) (final_array resumed);
  (* the checkpoint the run resumed from counts itself *)
  check_int "checkpoints_written counts both runs' checkpoints" !written
    (Dd_sim.Engine.stats resumed).Dd_sim.Sim_stats.checkpoints_written

let test_periodic_checkpoints_fire () =
  let gates = 40 in
  let circuit = Standard.random_circuit ~seed:11 ~qubits:4 ~gates () in
  let engine = Dd_sim.Engine.create 4 in
  let calls = ref [] in
  Dd_sim.Engine.run ~checkpoint_every:8
    ~on_checkpoint:(fun ~gate_index -> calls := gate_index :: !calls)
    engine circuit;
  let calls = List.rev !calls in
  check_bool "several periodic checkpoints" true (List.length calls >= 4);
  check_int "final checkpoint covers the whole run" gates
    (List.nth calls (List.length calls - 1));
  check_int "stats counted them" (List.length calls)
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.checkpoints_written

let test_resume_mid_repeat_block () =
  (* a resume point inside a Repeat block must work under DD-repeating:
     the partial repetition is finished gate by gate, the rest by the
     combined block matrix *)
  let circuit =
    Circuit.create ~qubits:3
      [
        Circuit.gate (Gate.h 0);
        Circuit.repeat 6
          [ Circuit.gate (Gate.h 1); Circuit.gate (Gate.cx 1 2) ];
      ]
  in
  let reference = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.run ~use_repeating:true reference circuit;
  (* cut at gate 4: inside the second repetition (1 + 2*2 - 1 gates) *)
  let cut = 4 in
  let flat = Circuit.flatten circuit in
  let prefix =
    Circuit.of_gates ~qubits:3 (List.filteri (fun i _ -> i < cut) flat)
  in
  let resumed = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.run resumed prefix;
  Dd_sim.Engine.run ~use_repeating:true ~start_gate:cut resumed circuit;
  check_cnum_array "mid-block resume equals uninterrupted"
    (final_array reference) (final_array resumed)

let test_invalid_checkpoint_rejected () =
  let reject name text =
    let ctx = fresh_ctx () in
    check_bool name true
      (match Dd_sim.Checkpoint.of_string ctx text with
      | (_ : Dd_sim.Checkpoint.t) -> false
      | exception
          Dd_sim.Error.Error (Dd_sim.Error.Invalid_checkpoint _) ->
        true)
  in
  reject "garbage" "not a checkpoint at all";
  reject "truncated" "ddsim-checkpoint 1\nqubits 3";
  reject "bad header" "ddsim-checkpoint 99\nqubits 3";
  let engine = Dd_sim.Engine.create 2 in
  Dd_sim.Engine.run engine (Standard.bell ());
  let good =
    Dd_sim.Checkpoint.to_string
      (Dd_sim.Checkpoint.snapshot engine
         ~strategy:Dd_sim.Strategy.Sequential ~gate_index:2)
  in
  (* corrupt one stats field and re-seal the document, so the stats
     decoder, not the checksum, is what rejects it *)
  let corrupted =
    let body, _ = Obs.Safe_io.split_jsonl_trailer good in
    let key = "\"gates_seen\":" in
    let rec at i =
      if String.sub body i (String.length key) = key then i else at (i + 1)
    in
    let i = at 0 + String.length key in
    let j = String.index_from body i ',' in
    sealed_jsonl
      (String.sub body 0 i ^ "\"three\""
      ^ String.sub body j (String.length body - j))
  in
  (match Dd_sim.Checkpoint.of_string (fresh_ctx ()) corrupted with
  | (_ : Dd_sim.Checkpoint.t) -> Alcotest.fail "corrupt stats accepted"
  | exception
      Dd_sim.Error.Error (Dd_sim.Error.Invalid_checkpoint { message; _ }) ->
    Alcotest.(check string)
      "rejected by the stats decoder" "checkpoint:2: stats.gates_seen is \
       not an integer" message)

let test_checkpoint_roundtrip_fields () =
  let engine = Dd_sim.Engine.create ~seed:5 3 in
  Dd_sim.Engine.run engine (Standard.ghz 3) ~strategy:(Dd_sim.Strategy.K_operations 2);
  let strategy = Dd_sim.Strategy.K_operations 2 in
  let checkpoint = Dd_sim.Checkpoint.snapshot engine ~strategy ~gate_index:3 in
  let text = Dd_sim.Checkpoint.to_string checkpoint in
  let ctx = fresh_ctx () in
  let loaded = Dd_sim.Checkpoint.of_string ctx text in
  check_int "qubits survive" 3 loaded.Dd_sim.Checkpoint.qubits;
  check_int "gate index survives" 3 loaded.Dd_sim.Checkpoint.gate_index;
  check_bool "strategy survives" true
    (loaded.Dd_sim.Checkpoint.strategy = strategy);
  check_cnum_array "state survives re-canonicalisation"
    (Dd.Vdd.to_array checkpoint.Dd_sim.Checkpoint.state ~n:3)
    (Dd.Vdd.to_array loaded.Dd_sim.Checkpoint.state ~n:3);
  check_int "stats survive"
    checkpoint.Dd_sim.Checkpoint.stats.Dd_sim.Sim_stats.mat_vec_mults
    loaded.Dd_sim.Checkpoint.stats.Dd_sim.Sim_stats.mat_vec_mults

let test_checkpoint_width_mismatch () =
  let engine = Dd_sim.Engine.create 2 in
  Dd_sim.Engine.run engine (Standard.bell ());
  let checkpoint =
    Dd_sim.Checkpoint.snapshot engine ~strategy:Dd_sim.Strategy.Sequential
      ~gate_index:2
  in
  let wrong = Dd_sim.Engine.create 3 in
  Alcotest.check_raises "restore into wrong width"
    (Dd_sim.Error.Error
       (Dd_sim.Error.Width_mismatch
          { what = "Checkpoint.restore"; expected = 3; actual = 2 }))
    (fun () -> ignore (Dd_sim.Checkpoint.restore wrong checkpoint))

(* -- guard construction -------------------------------------------------- *)

let test_guard_validation_and_printing () =
  check_bool "none prints unguarded" true
    (Dd_sim.Guard.to_string Dd_sim.Guard.none = "unguarded");
  let guard =
    Dd_sim.Guard.make ~max_live_nodes:1000 ~deadline:2.5 ()
  in
  check_bool "fields print" true
    (Dd_sim.Guard.to_string guard = "max-live-nodes=1000 deadline=2.5s");
  Alcotest.check_raises "zero budget rejected"
    (Invalid_argument "Guard.make: max_matrix_nodes must be >= 1")
    (fun () -> ignore (Dd_sim.Guard.make ~max_matrix_nodes:0 ()))

let suite =
  [
    Alcotest.test_case "qft_k16_budget_fallback" `Quick
      test_qft_k16_matrix_budget_falls_back;
    Alcotest.test_case "max_size_budget_fallback" `Quick
      test_max_size_matrix_budget_falls_back;
    Alcotest.test_case "tiny_budget_sequential" `Quick
      test_tiny_budget_degrades_to_sequential;
    Alcotest.test_case "deadline_zero_aborts" `Quick
      test_deadline_zero_aborts_at_gate_zero;
    Alcotest.test_case "live_node_budget_aborts" `Quick
      test_live_node_budget_aborts;
    Alcotest.test_case "auto_gc_triggers" `Quick test_auto_gc_triggers;
    Alcotest.test_case "norm_drift_renormalized" `Quick
      test_norm_drift_renormalized;
    Alcotest.test_case "norm_collapse_aborts" `Quick
      test_norm_collapse_is_structured_abort;
    Alcotest.test_case "guard_none_identity" `Quick test_guard_none_is_identity;
    Alcotest.test_case "checkpoint_resume_grover" `Quick
      test_checkpoint_resume_matches_uninterrupted;
    Alcotest.test_case "abort_leaves_checkpoint" `Quick
      test_abort_writes_resumable_checkpoint;
    Alcotest.test_case "periodic_checkpoints" `Quick
      test_periodic_checkpoints_fire;
    Alcotest.test_case "resume_mid_repeat" `Quick test_resume_mid_repeat_block;
    Alcotest.test_case "invalid_checkpoint" `Quick
      test_invalid_checkpoint_rejected;
    Alcotest.test_case "checkpoint_roundtrip" `Quick
      test_checkpoint_roundtrip_fields;
    Alcotest.test_case "checkpoint_width_mismatch" `Quick
      test_checkpoint_width_mismatch;
    Alcotest.test_case "guard_validation" `Quick
      test_guard_validation_and_printing;
  ]
