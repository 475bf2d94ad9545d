(* The tracing layer's own invariants: a monotone clock, a disabled trace
   that costs nothing, an event timeline whose spans nest and whose
   completion times are ordered, exporters that round-trip, and — the
   cross-check that makes the trace trustworthy — event counts and node
   trajectories that agree exactly with the Sim_stats aggregates the
   engine has always maintained. *)

open Util

let traced_run ?strategy ?guard ?max_events circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  let trace = Obs.Trace.create ?max_events () in
  Dd_sim.Engine.set_trace engine trace;
  Dd_sim.Engine.run ?strategy ?guard engine circuit;
  (engine, trace)

(* -- clock ---------------------------------------------------------- *)

let test_clock_monotone () =
  let previous = ref (Obs.Clock.now ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now () in
    check_bool "clock never goes backwards" true (t >= !previous);
    previous := t
  done

(* -- disabled tracing costs nothing --------------------------------- *)

let test_null_trace_is_off () =
  check_bool "null trace is off" false (Obs.Trace.is_on Obs.Trace.null);
  Obs.Trace.set_enabled Obs.Trace.null true;
  check_bool "null trace cannot be enabled" false
    (Obs.Trace.is_on Obs.Trace.null);
  Obs.Trace.instant Obs.Trace.null Obs.Trace.Gate_applied ~gate:0
    ~state_nodes:0 ~matrix_nodes:0 ~detail:"";
  check_int "null trace records nothing" 0 (Obs.Trace.length Obs.Trace.null)

let test_disabled_emission_allocates_nothing () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t false;
  (* warm up so any one-time allocation is outside the measured window *)
  Obs.Trace.instant t Obs.Trace.Gate_applied ~gate:1 ~state_nodes:2
    ~matrix_nodes:3 ~detail:"x";
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    Obs.Trace.instant t Obs.Trace.Gate_applied ~gate:i ~state_nodes:2
      ~matrix_nodes:3 ~detail:"x"
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "100k disabled instants allocated %.0f words" allocated)
    true (allocated < 256.);
  check_int "nothing was recorded" 0 (Obs.Trace.length t)

let test_engine_without_trace_stays_null () =
  let circuit = Standard.ghz 4 in
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.run engine circuit;
  check_bool "default engine trace is off" false
    (Obs.Trace.is_on (Dd_sim.Engine.trace engine));
  check_int "no dropped counter without a trace" 0
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.trace_events_dropped

(* -- event ordering invariants -------------------------------------- *)

let test_event_ordering () =
  let _, trace =
    traced_run
      ~strategy:(Dd_sim.Strategy.K_operations 4)
      (Grover.circuit ~n:6 ~marked:11 ())
  in
  let events = Obs.Trace.events trace in
  check_bool "a real run records events" true (Array.length events > 0);
  (* spans are emitted at completion, so completion times are monotone in
     buffer order *)
  let previous_end = ref neg_infinity in
  Array.iter
    (fun (e : Obs.Trace.event) ->
      check_bool "timestamps are non-negative" true (e.t >= 0.);
      check_bool "durations are non-negative" true (e.dur >= 0.);
      let finish = e.t +. e.dur in
      check_bool "completion times are monotone" true
        (finish >= !previous_end -. 1e-9);
      previous_end := finish)
    events;
  (* proper nesting: sort spans by (start asc, end desc) and sweep with a
     stack — every span must lie inside the enclosing open span *)
  let spans =
    Array.to_list events
    |> List.filter (fun (e : Obs.Trace.event) -> e.dur > 0.)
    |> List.sort (fun (a : Obs.Trace.event) (b : Obs.Trace.event) ->
           if a.t <> b.t then compare a.t b.t
           else compare (b.t +. b.dur) (a.t +. a.dur))
  in
  let eps = 1e-9 in
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Trace.event) ->
      let finish = e.t +. e.dur in
      (* a span ending exactly where the next starts is adjacent, not
         enclosing — the clock only has microsecond resolution *)
      while
        match !stack with
        | top_end :: _ -> top_end <= e.t +. eps
        | [] -> false
      do
        stack := List.tl !stack
      done;
      (match !stack with
      | top_end :: _ ->
        check_bool "spans nest (no partial overlap)" true
          (finish <= top_end +. eps)
      | [] -> ());
      stack := finish :: !stack)
    spans

(* -- exporters ------------------------------------------------------ *)

let kinds_equal a b = Obs.Trace_export.kind_to_string a = Obs.Trace_export.kind_to_string b

let test_kind_string_roundtrip () =
  List.iter
    (fun kind ->
      match Obs.Trace_export.kind_of_string (Obs.Trace_export.kind_to_string kind) with
      | Some back -> check_bool "kind round-trips" true (kinds_equal kind back)
      | None -> Alcotest.fail "kind failed to round-trip")
    [
      Obs.Trace.Gate_applied;
      Obs.Trace.Window_combined;
      Obs.Trace.Mat_vec;
      Obs.Trace.Mat_mat;
      Obs.Trace.Gc;
      Obs.Trace.Fallback;
      Obs.Trace.Renormalize;
      Obs.Trace.Checkpoint;
      Obs.Trace.Measure;
    ];
  check_bool "unknown kind rejected" true
    (Obs.Trace_export.kind_of_string "nonsense" = None)

let test_jsonl_roundtrip () =
  let _, trace =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 3) (Qft.circuit 5)
  in
  let meta = [ ("algo", "qft"); ("note", "with \"quotes\" and\nnewline") ] in
  let text = Obs.Trace_export.jsonl ~meta trace in
  let parsed = Obs.Trace_report.parse_jsonl text in
  check_bool "meta survives escaping" true
    (parsed.Obs.Trace_report.meta = meta);
  check_int "dropped count" (Obs.Trace.dropped trace)
    parsed.Obs.Trace_report.dropped;
  let original = Obs.Trace.events trace in
  let reloaded = Array.of_list parsed.Obs.Trace_report.events in
  check_int "event count" (Array.length original) (Array.length reloaded);
  Array.iteri
    (fun i (e : Obs.Trace.event) ->
      let r = reloaded.(i) in
      check_bool "kind" true (kinds_equal e.kind r.Obs.Trace.kind);
      check_int "gate" e.gate_index r.Obs.Trace.gate_index;
      check_int "state nodes" e.state_nodes r.Obs.Trace.state_nodes;
      check_int "matrix nodes" e.matrix_nodes r.Obs.Trace.matrix_nodes;
      check_int "hits" e.hits r.Obs.Trace.hits;
      check_int "misses" e.misses r.Obs.Trace.misses;
      check_bool "detail" true (e.detail = r.Obs.Trace.detail);
      check_bool "start time" true (Float.abs (e.t -. r.Obs.Trace.t) < 1e-8);
      check_bool "duration" true (Float.abs (e.dur -. r.Obs.Trace.dur) < 1e-8))
    original

let test_jsonl_rejects_bad_input () =
  let rejects ?message text =
    match Obs.Trace_report.parse_jsonl text with
    | _ -> Alcotest.fail "malformed trace accepted"
    | exception Failure got ->
      Option.iter (fun m -> Alcotest.(check string) "located message" m got)
        message
  in
  rejects "";
  rejects "{\"schema\":\"something-else\",\"version\":1,\"meta\":{}}";
  rejects "{\"schema\":\"ddsim-trace\",\"version\":99,\"meta\":{}}";
  rejects "not json at all";
  (* a v2 trace recorded with more than one domain carries pool_section
     spans, a kind the reader no longer knows *)
  rejects ~message:"trace:2: unknown event kind \"pool_section\""
    (sealed_jsonl
       "{\"schema\":\"ddsim-trace\",\"version\":2,\"events\":1,\"dropped\":0,\"meta\":{}}\n\
        {\"kind\":\"pool_section\",\"t\":0.5,\"dur\":0.25,\"gate\":3,\"state_nodes\":-1,\"matrix_nodes\":-1,\"hits\":0,\"misses\":0,\"domain\":1,\"detail\":\"x\"}\n")

let test_chrome_export_is_valid_json () =
  let _, trace =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 4) (Standard.ghz 6)
  in
  let json = Obs.Json.parse (Obs.Trace_export.chrome ~meta:[ ("a", "b") ] trace) in
  let events =
    match Obs.Json.member json "traceEvents" with
    | Some v -> Obs.Json.to_list v
    | None -> Alcotest.fail "no traceEvents array"
  in
  check_int "one chrome event per trace event" (Obs.Trace.length trace)
    (List.length events);
  List.iter
    (fun e ->
      let phase =
        match Obs.Json.member e "ph" with
        | Some v -> Obs.Json.to_str v
        | None -> Alcotest.fail "chrome event without ph"
      in
      check_bool "phase is X or i" true (phase = "X" || phase = "i");
      check_bool "ts present" true (Obs.Json.member e "ts" <> None))
    events;
  match Obs.Json.member json "otherData" with
  | Some other ->
    check_bool "schema tag in otherData" true
      (Obs.Json.member other "schema"
      = Some (Obs.Json.Str Obs.Trace_export.schema))
  | None -> Alcotest.fail "no otherData"

let test_summary_lists_kinds () =
  let _, trace =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 4) (Standard.ghz 6)
  in
  let summary = Obs.Trace_export.summary trace in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "summary mentions mat_vec" true (contains "mat_vec" summary);
  check_bool "summary mentions gate_applied" true
    (contains "gate_applied" summary)

(* -- trace agrees with the aggregate counters ----------------------- *)

let count_kind trace kind =
  let n = ref 0 in
  Obs.Trace.iter
    (fun (e : Obs.Trace.event) -> if kinds_equal e.kind kind then incr n)
    trace;
  !n

let check_trajectory_peak ~strategy circuit =
  let engine, trace = traced_run ~strategy circuit in
  let run =
    {
      Obs.Trace_report.meta = [];
      events = Array.to_list (Obs.Trace.events trace);
      dropped = Obs.Trace.dropped trace;
    }
  in
  let stats = Dd_sim.Engine.stats engine in
  (match Obs.Trace_report.peak_state_nodes run with
  | Some (_, peak) ->
    check_int "trajectory peak equals Sim_stats.peak_state_nodes"
      stats.Dd_sim.Sim_stats.peak_state_nodes peak
  | None -> Alcotest.fail "trace carries no node counts");
  check_int "one Mat_vec event per mat-vec multiplication"
    stats.Dd_sim.Sim_stats.mat_vec_mults
    (count_kind trace Obs.Trace.Mat_vec);
  check_int "one Mat_mat event per mat-mat multiplication"
    stats.Dd_sim.Sim_stats.mat_mat_mults
    (count_kind trace Obs.Trace.Mat_mat);
  check_int "one Gate_applied event per gate"
    stats.Dd_sim.Sim_stats.gates_seen
    (count_kind trace Obs.Trace.Gate_applied)

let test_trajectory_peak_matches_stats () =
  let circuit = Grover.circuit ~n:8 ~marked:5 () in
  check_trajectory_peak ~strategy:Dd_sim.Strategy.Sequential circuit;
  check_trajectory_peak ~strategy:(Dd_sim.Strategy.K_operations 4) circuit

let test_report_render () =
  let _, trace =
    traced_run ~strategy:(Dd_sim.Strategy.K_operations 4)
      (Grover.circuit ~n:6 ~marked:3 ())
  in
  let text = Obs.Trace_export.jsonl ~meta:[ ("algo", "grover") ] trace in
  let rendered =
    Obs.Trace_report.render (Obs.Trace_report.parse_jsonl text)
  in
  let contains needle haystack =
    let nl = String.length needle and hl = String.length haystack in
    let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
    go 0
  in
  check_bool "report names the peak" true
    (contains "peak state nodes:" rendered);
  check_bool "report renders the trajectory plot" true
    (contains "#" rendered);
  check_bool "report carries the meta" true (contains "grover" rendered)

let test_dropped_events_are_counted () =
  let engine, trace =
    traced_run ~max_events:8 ~strategy:Dd_sim.Strategy.Sequential
      (Standard.ghz 8)
  in
  check_int "buffer capped at max_events" 8 (Obs.Trace.length trace);
  check_bool "overflow is counted" true (Obs.Trace.dropped trace > 0);
  check_int "dropped count lands in Sim_stats"
    (Obs.Trace.dropped trace)
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.trace_events_dropped

let test_gc_span_recorded () =
  let circuit = Standard.ghz 10 in
  let engine = Dd_sim.Engine.create 10 in
  let trace = Obs.Trace.create () in
  Dd_sim.Engine.set_trace engine trace;
  Dd_sim.Engine.run engine circuit;
  let _ = Dd_sim.Engine.collect_garbage engine in
  check_bool "explicit collection emits a Gc event" true
    (count_kind trace Obs.Trace.Gc >= 1)

(* -- telemetry -------------------------------------------------------- *)

let test_telemetry_snapshot () =
  let circuit = Qft.circuit 5 in
  let engine = Dd_sim.Engine.create 5 in
  Dd_sim.Engine.run ~strategy:(Dd_sim.Strategy.K_operations 3) engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  let snap = Dd_sim.Telemetry.snapshot engine in
  let find name = List.assoc_opt name snap in
  check_bool "mat_vec_mults bridged" true
    (find "sim.mat_vec_mults"
    = Some (Dd_sim.Telemetry.Count stats.Dd_sim.Sim_stats.mat_vec_mults));
  check_bool "mat_mat_mults bridged" true
    (find "sim.mat_mat_mults"
    = Some (Dd_sim.Telemetry.Count stats.Dd_sim.Sim_stats.mat_mat_mults));
  check_bool "per-table hits bridged" true
    (match find "table.mul_mm.hits" with
    | Some (Dd_sim.Telemetry.Count _) -> true
    | _ -> false);
  check_bool "no domain-count metric" true (find "sim.domains" = None);
  check_bool "sorted by name" true
    (List.map fst snap = List.sort compare (List.map fst snap))

(* Every counter is named once, in Sim_stats.fields; assign, the
   checkpoint's stats object and the telemetry snapshot all walk that
   table.  The literal below is complete, so a new field this test does
   not name is a compile error; a field the table misses fails the
   round trips. *)
let test_counters_declared_once () =
  let expected : Dd_sim.Sim_stats.t =
    {
      mat_vec_mults = 1;
      mat_mat_mults = 2;
      fast_path_applies = 3;
      generic_applies = 4;
      gates_seen = 5;
      combined_applications = 6;
      peak_state_nodes = 7;
      peak_matrix_nodes = 8;
      fallbacks = 9;
      auto_gcs = 10;
      renormalizations = 11;
      checkpoints_written = 12;
      gc_pause_seconds = 0.1;
      gc_reclaimed_nodes = 14;
      wall_time_seconds = 1e-7;
      trace_events_dropped = 16;
      audits_run = 17;
      audit_violations = 18;
      audit_repairs = 19;
      reorders_run = 20;
      reorder_swaps = 21;
      reorder_nodes_before = 22;
      reorder_nodes_after = 23;
      ledger_entries = 24;
    }
  in
  let names =
    [
      ("mat_vec_mults", Dd_sim.Telemetry.Count 1);
      ("mat_mat_mults", Count 2);
      ("fast_path_applies", Count 3);
      ("generic_applies", Count 4);
      ("gates_seen", Count 5);
      ("combined_applications", Count 6);
      ("peak_state_nodes", Count 7);
      ("peak_matrix_nodes", Count 8);
      ("fallbacks", Count 9);
      ("auto_gcs", Count 10);
      ("renormalizations", Count 11);
      ("checkpoints_written", Count 12);
      ("gc_pause_seconds", Value 0.1);
      ("gc_reclaimed_nodes", Count 14);
      ("wall_time_seconds", Value 1e-7);
      ("trace_events_dropped", Count 16);
      ("audits_run", Count 17);
      ("audit_violations", Count 18);
      ("audit_repairs", Count 19);
      ("reorders_run", Count 20);
      ("reorder_swaps", Count 21);
      ("reorder_nodes_before", Count 22);
      ("reorder_nodes_after", Count 23);
      ("ledger_entries", Count 24);
    ]
  in
  let assigned = Dd_sim.Sim_stats.create () in
  Dd_sim.Sim_stats.assign assigned expected;
  check_bool "assign copies every counter" true (assigned = expected);
  let engine = Dd_sim.Engine.create 2 in
  Dd_sim.Engine.run engine (Standard.bell ());
  Dd_sim.Sim_stats.assign (Dd_sim.Engine.stats engine) expected;
  let text =
    Dd_sim.Checkpoint.to_string
      (Dd_sim.Checkpoint.snapshot engine ~strategy:Dd_sim.Strategy.Sequential
         ~gate_index:2)
  in
  let reloaded = Dd_sim.Checkpoint.of_string (fresh_ctx ()) text in
  check_bool "the checkpoint carries every counter losslessly" true
    (reloaded.Dd_sim.Checkpoint.stats = expected);
  let keys =
    (Obs.Jsonl.read ~schema:"ddsim-checkpoint" ~version:9
       ~record:(fun record ->
         match Obs.Json.member record "stats" with
         | Some (Obs.Json.Obj fields) -> List.map fst fields
         | _ -> [])
       text)
      .Obs.Jsonl.records
  in
  check_bool "the stats object is keyed by counter name" true
    (keys = [ List.map fst names ]);
  let snap = Dd_sim.Telemetry.snapshot engine in
  List.iter
    (fun (name, value) ->
      check_bool ("telemetry sim." ^ name) true
        (List.assoc_opt ("sim." ^ name) snap = Some value))
    names

(* -- Sim_stats additions -------------------------------------------- *)

let pp_to_string stats = Format.asprintf "%a" Dd_sim.Sim_stats.pp stats

let contains needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_stats_pp_fast_path_percentage () =
  let stats = Dd_sim.Sim_stats.create () in
  stats.Dd_sim.Sim_stats.fast_path_applies <- 3;
  stats.Dd_sim.Sim_stats.generic_applies <- 1;
  stats.Dd_sim.Sim_stats.mat_vec_mults <- 4;
  check_bool "pp prints the fast-path split" true
    (contains "75.0% fast" (pp_to_string stats));
  let zero = Dd_sim.Sim_stats.create () in
  check_bool "pp handles zero mat-vecs" true
    (contains "0.0% fast" (pp_to_string zero))

let test_stats_pp_wall_and_dropped () =
  let stats = Dd_sim.Sim_stats.create () in
  check_bool "no wall field when zero" false
    (contains "wall=" (pp_to_string stats));
  stats.Dd_sim.Sim_stats.wall_time_seconds <- 1.25;
  stats.Dd_sim.Sim_stats.trace_events_dropped <- 7;
  let text = pp_to_string stats in
  check_bool "wall time printed" true (contains "wall=1.250s" text);
  check_bool "dropped events printed" true (contains "trace-dropped=7" text)

let test_stats_pp_gc_pause () =
  let stats = Dd_sim.Sim_stats.create () in
  stats.Dd_sim.Sim_stats.auto_gcs <- 2;
  stats.Dd_sim.Sim_stats.gc_pause_seconds <- 0.004;
  stats.Dd_sim.Sim_stats.gc_reclaimed_nodes <- 123;
  let text = pp_to_string stats in
  check_bool "gc pause printed" true (contains "gc-pause=4.000ms" text);
  check_bool "gc reclaimed printed" true (contains "gc-reclaimed=123" text)

let test_wall_time_accumulates () =
  let circuit = Standard.ghz 8 in
  let engine = Dd_sim.Engine.create 8 in
  Dd_sim.Engine.run engine circuit;
  let first = (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.wall_time_seconds in
  check_bool "run records wall time" true (first >= 0.);
  Dd_sim.Engine.run engine circuit;
  let second =
    (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.wall_time_seconds
  in
  check_bool "wall time accumulates across runs" true (second >= first)

(* -- checkpoint v9 -------------------------------------------------- *)

let test_checkpoint_v4_roundtrip () =
  let circuit = Standard.ghz 6 in
  let engine = Dd_sim.Engine.create 6 in
  Dd_sim.Engine.run engine circuit;
  let stats = Dd_sim.Engine.stats engine in
  stats.Dd_sim.Sim_stats.trace_events_dropped <- 42;
  stats.Dd_sim.Sim_stats.wall_time_seconds <- 0.125;
  let checkpoint =
    Dd_sim.Checkpoint.snapshot engine ~strategy:Dd_sim.Strategy.Sequential
      ~gate_index:6
  in
  let text = Dd_sim.Checkpoint.to_string checkpoint in
  let doc =
    Obs.Jsonl.read ~schema:"ddsim-checkpoint" ~version:9 ~record:Fun.id text
  in
  check_int "one record" 1 (List.length doc.Obs.Jsonl.records);
  check_bool "checksum trailer present" true
    (contains "\n{\"checksum\":\"" text);
  let reloaded =
    Dd_sim.Checkpoint.of_string (fresh_ctx ()) ~source:"<test>" text
  in
  let restored = reloaded.Dd_sim.Checkpoint.stats in
  check_int "trace_events_dropped round-trips" 42
    restored.Dd_sim.Sim_stats.trace_events_dropped;
  check_bool "wall_time_seconds round-trips losslessly" true
    (restored.Dd_sim.Sim_stats.wall_time_seconds = 0.125);
  check_int "older counters still round-trip"
    stats.Dd_sim.Sim_stats.mat_vec_mults
    restored.Dd_sim.Sim_stats.mat_vec_mults

(* -- QCheck: the trace is a faithful ledger of the aggregates -------- *)

let circuit_arb ~qubits ~gates =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "random_circuit seed %d" seed)
    QCheck.Gen.(0 -- 10000)
  |> QCheck.map_keep_input (fun seed ->
         Standard.random_circuit ~seed ~qubits ~gates ())

let prop_trace_counts_match_stats =
  QCheck.Test.make
    ~name:"trace event counts reproduce Sim_stats on random circuits"
    ~count:30
    (QCheck.pair
       (circuit_arb ~qubits:4 ~gates:30)
       (QCheck.oneofl
          [
            (Dd_sim.Strategy.Sequential, None);
            (Dd_sim.Strategy.K_operations 3, None);
            (Dd_sim.Strategy.Max_size 64, None);
            (* the fallback arm: over-budget windows degrade to sequential *)
            ( Dd_sim.Strategy.K_operations 3,
              Some (Dd_sim.Guard.make ~max_matrix_nodes:8 ()) );
          ]))
  @@ fun ((_, circuit), (strategy, guard)) ->
  let engine, trace = traced_run ~strategy ?guard circuit in
  let stats = Dd_sim.Engine.stats engine in
  count_kind trace Obs.Trace.Mat_vec = stats.Dd_sim.Sim_stats.mat_vec_mults
  && count_kind trace Obs.Trace.Mat_mat = stats.Dd_sim.Sim_stats.mat_mat_mults
  && count_kind trace Obs.Trace.Gate_applied
     = stats.Dd_sim.Sim_stats.gates_seen


(* Only the current version is read.  A well-formed v1 document (the
   pre-lane format, trailer and all) must be refused by version, not
   misparsed. *)
let test_rejects_v1_header () =
  let v1 =
    sealed_jsonl
      "{\"schema\":\"ddsim-trace\",\"version\":1,\"events\":1,\"dropped\":0,\"meta\":{}}\n\
       {\"kind\":\"mat_vec\",\"t\":0.5,\"dur\":0.25,\"gate\":3,\"state_nodes\":7,\"matrix_nodes\":-1,\"hits\":1,\"misses\":2,\"detail\":\"x\"}\n"
  in
  match Obs.Trace_report.parse_jsonl v1 with
  | _ -> Alcotest.fail "a v1 trace was accepted"
  | exception Failure message ->
    Alcotest.(check string)
      "names the version it refuses"
      "trace:1: unsupported schema version 1 (current is 2)" message

let suite =
  [
    Alcotest.test_case "clock_monotone" `Quick test_clock_monotone;
    Alcotest.test_case "null_trace_is_off" `Quick test_null_trace_is_off;
    Alcotest.test_case "disabled_emission_allocates_nothing" `Quick
      test_disabled_emission_allocates_nothing;
    Alcotest.test_case "engine_without_trace_stays_null" `Quick
      test_engine_without_trace_stays_null;
    Alcotest.test_case "event_ordering" `Quick test_event_ordering;
    Alcotest.test_case "kind_string_roundtrip" `Quick
      test_kind_string_roundtrip;
    Alcotest.test_case "jsonl_roundtrip" `Quick test_jsonl_roundtrip;
    Alcotest.test_case "jsonl_rejects_bad_input" `Quick
      test_jsonl_rejects_bad_input;
    Alcotest.test_case "chrome_export_is_valid_json" `Quick
      test_chrome_export_is_valid_json;
    Alcotest.test_case "summary_lists_kinds" `Quick test_summary_lists_kinds;
    Alcotest.test_case "trajectory_peak_matches_stats" `Quick
      test_trajectory_peak_matches_stats;
    Alcotest.test_case "report_render" `Quick test_report_render;
    Alcotest.test_case "dropped_events_are_counted" `Quick
      test_dropped_events_are_counted;
    Alcotest.test_case "gc_span_recorded" `Quick test_gc_span_recorded;
    Alcotest.test_case "telemetry_snapshot" `Quick test_telemetry_snapshot;
    Alcotest.test_case "counters_declared_once" `Quick
      test_counters_declared_once;
    Alcotest.test_case "stats_pp_fast_path_percentage" `Quick
      test_stats_pp_fast_path_percentage;
    Alcotest.test_case "stats_pp_wall_and_dropped" `Quick
      test_stats_pp_wall_and_dropped;
    Alcotest.test_case "stats_pp_gc_pause" `Quick test_stats_pp_gc_pause;
    Alcotest.test_case "wall_time_accumulates" `Quick
      test_wall_time_accumulates;
    Alcotest.test_case "checkpoint_v4_roundtrip" `Quick
      test_checkpoint_v4_roundtrip;
    Alcotest.test_case "rejects_v1_header" `Quick test_rejects_v1_header;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_trace_counts_match_stats ]
