(* Strategy cost ledger: per-window attribution, JSONL round-trips,
   explain/fsck integration, and the zero-cost-when-disabled contract. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let temp_path suffix =
  Filename.temp_file "ddsim_ledger_test" suffix

let ledgered_run ?(strategy = Dd_sim.Strategy.Sequential) ?guard circuit =
  let engine = Dd_sim.Engine.create ~seed:7 Circuit.(circuit.qubits) in
  let ledger = Obs.Ledger.create () in
  Dd_sim.Engine.set_ledger engine ledger;
  (match guard with
  | None -> Dd_sim.Engine.run ~strategy engine circuit
  | Some guard -> Dd_sim.Engine.run ~strategy ~guard engine circuit);
  (engine, ledger)

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub text i m = sub || loop (i + 1)) in
  loop 0

(* -- null sink and disabled-path contract ------------------------------ *)

let test_null_sink () =
  let t = Obs.Ledger.null in
  check_bool "null sink is off" false (Obs.Ledger.is_on t);
  Obs.Ledger.open_entry t ~seq:true ~gate:0 ~state_nodes:1;
  Obs.Ledger.add_gates t 3;
  Obs.Ledger.add_build t 0.5;
  Obs.Ledger.commit t ~gate_end:3 ~state_nodes:1 ~heap_words:0 ~table_bytes:0;
  check_int "null sink records nothing" 0 (Obs.Ledger.length t);
  check_bool "null sink never has an open entry" false (Obs.Ledger.active t)

let test_disabled_probe_allocates_nothing () =
  let t = Obs.Ledger.null in
  (* pre-bound floats so the loop body itself cannot box arguments *)
  let dt = Sys.opaque_identity 0.001 in
  (* warm-up outside the measured window *)
  Obs.Ledger.add_build t dt;
  Obs.Ledger.add_apply t dt;
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    Obs.Ledger.add_gates t 1;
    Obs.Ledger.add_build t dt;
    Obs.Ledger.add_apply t dt;
    Obs.Ledger.add_traffic t ~hits:i ~misses:i;
    Obs.Ledger.note_matrix t i
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "100k disabled probes allocated %.0f words" allocated)
    true (allocated < 256.)

let test_unledgered_run_is_identical () =
  let circuit = Qft.circuit 8 in
  let strategy = Dd_sim.Strategy.K_operations 4 in
  let run ~with_ledger =
    let engine = Dd_sim.Engine.create ~seed:7 Circuit.(circuit.qubits) in
    if with_ledger then
      Dd_sim.Engine.set_ledger engine (Obs.Ledger.create ());
    Dd_sim.Engine.run ~strategy engine circuit;
    engine
  in
  let plain = run ~with_ledger:false in
  let ledgered = run ~with_ledger:true in
  let s_plain = Dd_sim.Engine.stats plain in
  let s_ledgered = Dd_sim.Engine.stats ledgered in
  check_int "same gate count"
    s_plain.Dd_sim.Sim_stats.gates_seen
    s_ledgered.Dd_sim.Sim_stats.gates_seen;
  check_int "same mat-vec multiplications"
    s_plain.Dd_sim.Sim_stats.mat_vec_mults
    s_ledgered.Dd_sim.Sim_stats.mat_vec_mults;
  check_int "same mat-mat multiplications"
    s_plain.Dd_sim.Sim_stats.mat_mat_mults
    s_ledgered.Dd_sim.Sim_stats.mat_mat_mults;
  check_int "same combined applications"
    s_plain.Dd_sim.Sim_stats.combined_applications
    s_ledgered.Dd_sim.Sim_stats.combined_applications;
  check_int "same final state DD"
    (Dd_sim.Engine.state_node_count plain)
    (Dd_sim.Engine.state_node_count ledgered);
  check_int "no ledger entries without a sink" 0
    s_plain.Dd_sim.Sim_stats.ledger_entries;
  check_bool "ledgered run counts its entries" true
    (s_ledgered.Dd_sim.Sim_stats.ledger_entries > 0)

(* -- entry semantics --------------------------------------------------- *)

let entry_ranges entries =
  List.map
    (fun (e : Obs.Ledger.entry) -> (e.gate_start, e.gate_end))
    entries

let check_monotone_ranges entries =
  ignore
    (List.fold_left
       (fun last (start, stop) ->
         check_bool
           (Printf.sprintf "range [%d,%d) does not overlap its predecessor"
              start stop)
           true (start >= last);
         check_bool
           (Printf.sprintf "range [%d,%d) is not inverted" start stop)
           true (stop >= start);
         stop)
       0 (entry_ranges entries))

let test_sequential_run_entries () =
  let circuit = Grover.circuit ~n:6 ~marked:11 () in
  let engine, ledger = ledgered_run circuit in
  let entries = Obs.Ledger.entries ledger in
  check_bool "sequential run committed entries" true (entries <> []);
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool "every entry is a mat-vec stretch" true
        (e.strategy = Obs.Ledger.Mat_vec))
    entries;
  let gates =
    List.fold_left
      (fun acc (e : Obs.Ledger.entry) -> acc + e.gates)
      0 entries
  in
  check_int "every applied gate is attributed"
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.gates_seen gates;
  check_monotone_ranges entries

let test_k4_attribution_covers_wall_clock () =
  (* the acceptance gate from the issue: on a qft_14 k:4 run the summed
     build+apply seconds cover >= 95% of the engine wall clock *)
  let circuit = Qft.circuit 14 in
  let engine, ledger =
    ledgered_run ~strategy:(Dd_sim.Strategy.K_operations 4) circuit
  in
  let entries = Obs.Ledger.entries ledger in
  check_bool "windows were committed" true (entries <> []);
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool "every entry is a combination window" true
        (match e.strategy with Obs.Ledger.Mat_mat _ -> true | _ -> false))
    entries;
  check_monotone_ranges entries;
  let wall =
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.wall_time_seconds
  in
  let attributed =
    Obs.Ledger.total_build_seconds ledger
    +. Obs.Ledger.total_apply_seconds ledger
  in
  check_bool
    (Printf.sprintf "ledger covers %.1f%% of the wall clock (>= 95%%)"
       (100. *. attributed /. Float.max wall 1e-12))
    true
    (attributed >= 0.95 *. wall);
  check_bool "attribution never exceeds wall (within timer noise)" true
    (attributed <= wall *. 1.05 +. 0.001)

let test_k1_windows () =
  let circuit = Qft.circuit 6 in
  let _, ledger =
    ledgered_run ~strategy:(Dd_sim.Strategy.K_operations 1) circuit
  in
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool "k=1 window entries carry Mat_mat 1" true
        (e.strategy = Obs.Ledger.Mat_mat 1))
    (Obs.Ledger.entries ledger)

let test_fallback_records_budget () =
  (* a tiny matrix budget degrades windows to sequential application;
     the entry must say so and name the budget *)
  let circuit = Grover.circuit ~n:6 ~marked:11 () in
  let guard = Dd_sim.Guard.make ~max_matrix_nodes:2 () in
  let engine, ledger =
    ledgered_run ~strategy:(Dd_sim.Strategy.K_operations 8) ~guard circuit
  in
  check_bool "the guard actually tripped" true
    ((Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.fallbacks > 0);
  let fallbacks =
    List.filter
      (fun (e : Obs.Ledger.entry) -> e.strategy = Obs.Ledger.Fallback)
      (Obs.Ledger.entries ledger)
  in
  check_bool "fallback windows are ledgered as such" true (fallbacks <> []);
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool
        (Printf.sprintf "detail %S names the tripped budget" e.detail)
        true
        (contains_sub e.detail "max_matrix_nodes 2"))
    fallbacks

let test_resume_does_not_duplicate_entries () =
  let circuit = Qft.circuit 8 in
  let strategy = Dd_sim.Strategy.K_operations 4 in
  let path = temp_path ".ckpt" in
  (* first run: checkpoint mid-run only (the engine also checkpoints at
     the end of the run, which would leave nothing to resume), keep its
     own ledger *)
  let engine = Dd_sim.Engine.create ~seed:7 Circuit.(circuit.qubits) in
  Dd_sim.Engine.set_ledger engine (Obs.Ledger.create ());
  Dd_sim.Engine.run ~strategy ~checkpoint_every:12
    ~on_checkpoint:(fun ~gate_index ->
      if gate_index < Circuit.gate_count circuit then
        Dd_sim.Checkpoint.save engine ~strategy ~gate_index ~path)
    engine circuit;
  (* resume into a fresh engine with a fresh ledger from the last
     periodic checkpoint; no entry may cover already-replayed gates *)
  let ctx = Dd.Context.create () in
  let engine2 = Dd_sim.Engine.create ~context:ctx Circuit.(circuit.qubits) in
  let loaded, _ = Dd_sim.Checkpoint.load_latest ctx ~path in
  let start = Dd_sim.Checkpoint.restore engine2 loaded in
  let ledger2 = Obs.Ledger.create () in
  Dd_sim.Engine.set_ledger engine2 ledger2;
  Dd_sim.Engine.run ~strategy ~start_gate:start engine2 circuit;
  let entries = Obs.Ledger.entries ledger2 in
  check_bool "resumed run committed entries" true (entries <> []);
  check_monotone_ranges entries;
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      check_bool
        (Printf.sprintf "entry [%d,%d) starts at or after the resume gate %d"
           e.gate_start e.gate_end start)
        true (e.gate_start >= start))
    entries;
  let gates =
    List.fold_left
      (fun acc (e : Obs.Ledger.entry) -> acc + e.gates)
      0 entries
  in
  check_int "the resumed ledger covers exactly the replayed tail"
    (Circuit.gate_count circuit - start)
    gates;
  Sys.remove path;
  if Sys.file_exists (path ^ ".prev") then Sys.remove (path ^ ".prev")

let test_retention_and_rotation () =
  let t = Obs.Ledger.create ~max_entries:2 ~stretch:4 () in
  for i = 0 to 2 do
    Obs.Ledger.open_entry t ~seq:true ~gate:(i * 10) ~state_nodes:1;
    Obs.Ledger.add_gates t 1;
    Obs.Ledger.add_build t 0.25;
    Obs.Ledger.commit t
      ~gate_end:((i * 10) + 1)
      ~state_nodes:1 ~heap_words:0 ~table_bytes:0
  done;
  check_int "retention caps the stored entries" 2 (Obs.Ledger.length t);
  check_int "the overflow is counted" 1 (Obs.Ledger.dropped t);
  check_bool "totals survive retention" true
    (Obs.Ledger.total_build_seconds t >= 0.75);
  Obs.Ledger.open_entry t ~seq:true ~gate:40 ~state_nodes:1;
  Obs.Ledger.add_gates t 3;
  check_bool "under the stretch cap" false (Obs.Ledger.rotate_due t);
  Obs.Ledger.add_gates t 1;
  check_bool "at the stretch cap" true (Obs.Ledger.rotate_due t)

(* -- sidecar, explain, fsck -------------------------------------------- *)

let test_jsonl_roundtrip_and_fsck () =
  let circuit = Qft.circuit 8 in
  let _, ledger =
    ledgered_run ~strategy:(Dd_sim.Strategy.K_operations 4) circuit
  in
  let meta = [ ("algo", "qft"); ("wall_seconds", "0.5") ] in
  let text = Obs.Ledger.jsonl ~meta ledger in
  let run = Obs.Ledger.parse_jsonl text in
  check_bool "round-trip preserves the meta" true
    (List.assoc "algo" run.Obs.Ledger.run_meta = "qft");
  check_int "round-trip preserves every entry"
    (Obs.Ledger.length ledger)
    (List.length run.Obs.Ledger.run_entries);
  List.iter2
    (fun (a : Obs.Ledger.entry) (b : Obs.Ledger.entry) ->
      check_bool "entry round-trips" true
        (a.strategy = b.strategy && a.gate_start = b.gate_start
        && a.gate_end = b.gate_end && a.gates = b.gates
        && a.peak_matrix_nodes = b.peak_matrix_nodes
        && a.hits = b.hits && a.misses = b.misses))
    (Obs.Ledger.entries ledger)
    run.Obs.Ledger.run_entries;
  let path = temp_path ".jsonl" in
  Obs.Safe_io.write_file path text;
  let report = Dd_sim.Fsck.check_file ~path in
  check_bool "fsck passes a clean ledger" true report.Dd_sim.Fsck.ok;
  check_bool "fsck classifies the family" true
    (report.Dd_sim.Fsck.family = "ledger");
  (* flip one byte inside the body: the checksum trailer must catch it *)
  let corrupted = Bytes.of_string text in
  let mid = Bytes.length corrupted / 2 in
  Bytes.set corrupted mid
    (if Bytes.get corrupted mid = '1' then '2' else '1');
  Obs.Safe_io.write_file path (Bytes.to_string corrupted);
  let report = Dd_sim.Fsck.check_file ~path in
  check_bool "fsck flags a corrupted ledger" false report.Dd_sim.Fsck.ok;
  Sys.remove path

let test_explain_output () =
  let circuit = Qft.circuit 10 in
  let _, ledger =
    ledgered_run ~strategy:(Dd_sim.Strategy.K_operations 4) circuit
  in
  let text =
    Obs.Ledger.jsonl ~meta:[ ("wall_seconds", "0.25") ] ledger
  in
  let rendered = Obs.Ledger.explain (Obs.Ledger.parse_jsonl text) in
  List.iter
    (fun needle ->
      check_bool
        (Printf.sprintf "explain mentions %S" needle)
        true
        (contains_sub rendered needle))
    [
      "strategy totals";
      "mat-vec";
      "mat-mat";
      "amortization per window size";
      "most expensive windows";
      "peak memory";
      "wall clock";
    ]

let test_break_even_prefers_smallest_winning_k () =
  let mk strategy gates build apply : Obs.Ledger.entry =
    {
      index = 0;
      strategy;
      gate_start = 0;
      gate_end = gates;
      gates;
      build_seconds = build;
      apply_seconds = apply;
      peak_matrix_nodes = -1;
      state_nodes_before = 1;
      state_nodes_after = 1;
      hits = 0;
      misses = 0;
      heap_live_words = 0;
      table_bytes = 0;
      detail = "";
    }
  in
  (* mat-vec baseline: 10 gates in 1s -> 0.1 s/gate.  k=2 windows cost
     0.3 s/gate (lose); k=4 windows cost 0.05 s/gate (win). *)
  let entries =
    [
      mk Obs.Ledger.Mat_vec 10 0. 1.0;
      mk (Obs.Ledger.Mat_mat 2) 2 0.5 0.1;
      mk (Obs.Ledger.Mat_mat 4) 4 0.1 0.1;
    ]
  in
  (match Obs.Ledger.break_even entries with
  | Some k -> check_int "break-even lands on the first winning k" 4 k
  | None -> Alcotest.fail "expected a break-even k");
  check_bool "no baseline means no break-even" true
    (Obs.Ledger.break_even
       [ mk (Obs.Ledger.Mat_mat 4) 4 0.1 0.1 ]
    = None)

(* -- telemetry and report satellites ----------------------------------- *)

let test_memory_telemetry_family () =
  let circuit = Qft.circuit 8 in
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run engine circuit;
  let snap = Dd_sim.Telemetry.snapshot engine in
  let count name =
    match List.assoc_opt name snap with
    | Some (Dd_sim.Telemetry.Count v) -> v
    | _ -> Alcotest.fail (Printf.sprintf "metric %s missing" name)
  in
  check_bool "heap gauge is live" true (count "mem.heap_live_words" > 0);
  check_bool "unique-table residency is live" true
    (count "mem.unique_table_bytes" > 0);
  check_bool "residency combines both families" true
    (count "mem.residency_bytes"
     = count "mem.unique_table_bytes" + count "mem.compute_table_bytes");
  check_bool "ident-skip counter is surfaced" true
    (count "table.apply.ident_skips" >= 0)

let test_report_header_only_trace () =
  let rendered =
    Obs.Trace_report.render
      { Obs.Trace_report.meta = []; events = []; dropped = 0 }
  in
  check_bool "header-only trace reports cleanly" true
    (contains_sub rendered "no events recorded")

let suite =
  [
    Alcotest.test_case "null_sink" `Quick test_null_sink;
    Alcotest.test_case "disabled_probe_allocates_nothing" `Quick
      test_disabled_probe_allocates_nothing;
    Alcotest.test_case "unledgered_run_is_identical" `Quick
      test_unledgered_run_is_identical;
    Alcotest.test_case "sequential_run_entries" `Quick
      test_sequential_run_entries;
    Alcotest.test_case "k4_attribution_covers_wall_clock" `Quick
      test_k4_attribution_covers_wall_clock;
    Alcotest.test_case "k1_windows" `Quick test_k1_windows;
    Alcotest.test_case "fallback_records_budget" `Quick
      test_fallback_records_budget;
    Alcotest.test_case "resume_does_not_duplicate_entries" `Quick
      test_resume_does_not_duplicate_entries;
    Alcotest.test_case "retention_and_rotation" `Quick
      test_retention_and_rotation;
    Alcotest.test_case "jsonl_roundtrip_and_fsck" `Quick
      test_jsonl_roundtrip_and_fsck;
    Alcotest.test_case "explain_output" `Quick test_explain_output;
    Alcotest.test_case "break_even_prefers_smallest_winning_k" `Quick
      test_break_even_prefers_smallest_winning_k;
    Alcotest.test_case "memory_telemetry_family" `Quick
      test_memory_telemetry_family;
    Alcotest.test_case "report_header_only_trace" `Quick
      test_report_header_only_trace;
  ]
