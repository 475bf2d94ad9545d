(* Structural DD profiling: the walks on states whose shape is known in
   closed form, the cadence sink the engine emits through, the JSONL
   sidecar round-trip with located parse errors, and — the guarantee that
   makes always-on profiling hooks acceptable — a disabled profiler that
   allocates nothing. *)

open Util

let run_circuit ?strategy circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run ?strategy engine circuit;
  engine

let state_profile engine =
  Dd.Profile.vector (Dd_sim.Engine.context engine) (Dd_sim.Engine.state engine)

(* -- walks over known states ----------------------------------------- *)

let test_ghz_profile () =
  let engine = run_circuit (Standard.ghz 4) in
  let s = state_profile engine in
  check_int "nodes" 7 s.Obs.Dd_profile.nodes;
  check_int "levels" 4 (List.length s.levels);
  (match s.levels with
  | top :: rest ->
    check_int "root level" 3 top.Obs.Dd_profile.level;
    check_int "one root node" 1 top.nodes;
    List.iter
      (fun (l : Obs.Dd_profile.level) ->
        check_int
          (Printf.sprintf "two nodes at level %d" l.level)
          2 l.nodes)
      rest
  | [] -> Alcotest.fail "no levels");
  check_float "GHZ branches share nothing" 1.0 s.sharing;
  check_float "no identity-region nodes" 0.0 s.identity_fraction

let test_plus_state_profile () =
  (* H on every qubit: one node per level, low = high everywhere, so the
     identity fraction is exactly 1 and every level holds one node *)
  let n = 5 in
  let circuit =
    Circuit.of_gates ~qubits:n (List.init n (fun q -> Gate.h q))
  in
  let engine = run_circuit circuit in
  let s = state_profile engine in
  check_int "one node per level" n s.Obs.Dd_profile.nodes;
  check_float "every node is identity-region" 1.0 s.identity_fraction;
  List.iter
    (fun (l : Obs.Dd_profile.level) ->
      check_int "single node" 1 l.nodes;
      check_int "two non-zero edges" 2 l.edges;
      check_int "no zero stubs" 0 l.zero_edges)
    s.levels

let test_basis_state_profile () =
  let n = 4 in
  let circuit = Circuit.of_gates ~qubits:n [ Gate.x 2 ] in
  let engine = run_circuit circuit in
  let s = state_profile engine in
  check_int "a path: one node per level" n s.Obs.Dd_profile.nodes;
  check_float "paths have no identity nodes" 0.0 s.identity_fraction;
  (* each node has exactly one non-zero edge and one zero stub *)
  List.iter
    (fun (l : Obs.Dd_profile.level) ->
      check_int "one live edge" 1 l.edges;
      check_int "one zero stub" 1 l.zero_edges)
    s.levels

let test_edge_totals_consistent () =
  let engine = run_circuit (Grover.circuit ~n:6 ~marked:13 ()) in
  let s = state_profile engine in
  let level_edges =
    List.fold_left
      (fun acc (l : Obs.Dd_profile.level) -> acc + l.edges)
      0 s.Obs.Dd_profile.levels
  in
  (* snapshot total includes the root edge on top of per-level out-edges *)
  check_int "totals add up" (level_edges + 1) s.edges;
  check_int "node count matches engine" (Dd_sim.Engine.state_node_count engine)
    s.nodes;
  check_bool "weights histogram is populated" true
    (List.exists
       (fun (l : Obs.Dd_profile.level) -> l.weights <> [])
       s.levels)

let test_matrix_profile_identity () =
  (* the identity matrix DD: every node is identity-region *)
  let ctx = fresh_ctx () in
  let e = Dd.Mdd.identity ctx 3 in
  let s = Dd.Profile.matrix ctx e in
  check_int "identity has one node per level" 3 s.Obs.Dd_profile.nodes;
  check_float "all nodes identity-region" 1.0 s.identity_fraction;
  check_bool "dd kind is matrix" true (s.dd = "matrix")

(* -- sink cadence ----------------------------------------------------- *)

let test_null_sink_is_off () =
  check_bool "null sink is off" false (Obs.Dd_profile.is_on Obs.Dd_profile.null);
  check_bool "null sink is never due" false
    (Obs.Dd_profile.due Obs.Dd_profile.null ~gate:123);
  check_int "null sink records nothing" 0
    (Obs.Dd_profile.length Obs.Dd_profile.null)

let test_disabled_probe_allocates_nothing () =
  (* warm-up, then 100k probes of a disabled (null) sink must stay under
     the noise floor — the probe is one load and one branch *)
  ignore (Obs.Dd_profile.due Obs.Dd_profile.null ~gate:0);
  let before = Gc.minor_words () in
  for i = 1 to 100_000 do
    ignore (Obs.Dd_profile.due Obs.Dd_profile.null ~gate:i)
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "100k disabled probes allocated %.0f words" allocated)
    true (allocated < 256.)

let snapshot_gates sink =
  List.map
    (fun (s : Obs.Dd_profile.snapshot) -> s.gate_index)
    (Obs.Dd_profile.snapshots sink)

let test_cadence () =
  let sink = Obs.Dd_profile.create ~every:3 () in
  check_bool "fresh sink is due" true (Obs.Dd_profile.due sink ~gate:0);
  let emit gate =
    if Obs.Dd_profile.due sink ~gate then
      Obs.Dd_profile.emit sink
        {
          Obs.Dd_profile.gate_index = gate;
          t = 0.;
          dd = "vector";
          nodes = 1;
          edges = 1;
          sharing = 1.;
          identity_fraction = 0.;
          levels = [];
        }
  in
  for gate = 0 to 10 do
    emit gate
  done;
  check_bool "snapshots every 3 gates"
    true
    (snapshot_gates sink = [ 0; 3; 6; 9 ]);
  check_int "last gate" 9 (Obs.Dd_profile.last_gate sink)

let test_max_snapshots_drops () =
  let sink = Obs.Dd_profile.create ~every:1 ~max_snapshots:2 () in
  for gate = 0 to 4 do
    Obs.Dd_profile.emit sink
      {
        Obs.Dd_profile.gate_index = gate;
        t = 0.;
        dd = "vector";
        nodes = 1;
        edges = 1;
        sharing = 1.;
        identity_fraction = 0.;
        levels = [];
      }
  done;
  check_int "stored at most max_snapshots" 2 (Obs.Dd_profile.length sink);
  check_int "excess counted as dropped" 3 (Obs.Dd_profile.dropped sink)

(* -- engine integration ----------------------------------------------- *)

let profiled_run ?strategy ~every circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  let sink = Obs.Dd_profile.create ~every () in
  Dd_sim.Engine.set_profile engine sink;
  Dd_sim.Engine.run ?strategy engine circuit;
  (engine, sink)

let test_engine_emits_profile () =
  let circuit = Grover.circuit ~n:6 ~marked:5 () in
  let total = Circuit.gate_count circuit in
  let engine, sink = profiled_run ~every:4 circuit in
  let gates = snapshot_gates sink in
  check_bool "snapshots were taken" true (List.length gates > 2);
  check_bool "gates ascend" true (List.sort compare gates = gates);
  (* the run always closes with a final snapshot of the end state *)
  check_int "final snapshot at the last gate" total
    (Obs.Dd_profile.last_gate sink);
  let final = List.nth (Obs.Dd_profile.snapshots sink) (List.length gates - 1) in
  check_int "final snapshot profiles the end state"
    (Dd_sim.Engine.state_node_count engine)
    final.Obs.Dd_profile.nodes

let test_engine_profile_under_combining () =
  (* with a combining strategy, snapshots only land on exact gate
     prefixes, but the final state must still be profiled *)
  let circuit = Standard.ghz 6 in
  let engine, sink =
    profiled_run ~strategy:(Dd_sim.Strategy.K_operations 4) ~every:1 circuit
  in
  let final =
    List.nth
      (Obs.Dd_profile.snapshots sink)
      (Obs.Dd_profile.length sink - 1)
  in
  check_int "final snapshot matches state"
    (Dd_sim.Engine.state_node_count engine)
    final.Obs.Dd_profile.nodes;
  check_int "final gate is the full circuit" (Circuit.gate_count circuit)
    (Obs.Dd_profile.last_gate sink)

let test_default_engine_profile_is_null () =
  let engine = Dd_sim.Engine.create 3 in
  check_bool "default profile sink is off" false
    (Obs.Dd_profile.is_on (Dd_sim.Engine.profile engine))

(* -- JSONL sidecar ---------------------------------------------------- *)

let test_jsonl_round_trip () =
  let circuit = Grover.circuit ~n:5 ~marked:9 () in
  let _, sink = profiled_run ~every:2 circuit in
  let text = Obs.Dd_profile.jsonl ~meta:[ ("algo", "grover") ] sink in
  let run = Obs.Dd_profile.parse_jsonl text in
  check_int "every survives" 2 run.run_every;
  check_bool "meta survives" true (run.run_meta = [ ("algo", "grover") ]);
  check_int "snapshot count survives" (Obs.Dd_profile.length sink)
    (List.length run.run_snapshots);
  List.iter2
    (fun (a : Obs.Dd_profile.snapshot) (b : Obs.Dd_profile.snapshot) ->
      check_int "gate survives" a.gate_index b.gate_index;
      check_int "nodes survive" a.nodes b.nodes;
      check_int "edges survive" a.edges b.edges;
      check_bool "levels survive" true (a.levels = b.levels);
      check_bool "sharing survives" true
        (Float.abs (a.sharing -. b.sharing) < 1e-5))
    (Obs.Dd_profile.snapshots sink)
    run.run_snapshots

let expect_located_failure name expected_fragment thunk =
  match thunk () with
  | _ -> Alcotest.fail (name ^ ": expected a Failure")
  | exception Failure message ->
    check_bool
      (Printf.sprintf "%s: %S mentions %S" name message expected_fragment)
      true
      (let n = String.length expected_fragment in
       let rec scan i =
         i + n <= String.length message
         && (String.sub message i n = expected_fragment || scan (i + 1))
       in
       scan 0)

let test_parse_errors_are_located () =
  expect_located_failure "empty" "empty" (fun () ->
      Obs.Dd_profile.parse_jsonl "");
  expect_located_failure "foreign schema" "profile:1" (fun () ->
      Obs.Dd_profile.parse_jsonl
        (sealed_jsonl "{\"schema\":\"something-else\",\"version\":1}\n"));
  expect_located_failure "bad version" "unsupported schema version" (fun () ->
      Obs.Dd_profile.parse_jsonl
        (sealed_jsonl "{\"schema\":\"ddsim-profile\",\"version\":99}\n"));
  expect_located_failure "malformed snapshot line" "profile:3" (fun () ->
      Obs.Dd_profile.parse_jsonl
        (sealed_jsonl
           ("{\"schema\":\"ddsim-profile\",\"version\":1,\"every\":1}\n"
          ^ "{\"gate\":0,\"nodes\":1}\n" ^ "{not json\n")))

(* -- weight buckets ----------------------------------------------------- *)

let test_bucket_exponent () =
  (* bucket e holds observations in [2^(e-1), 2^e) — Float.frexp's
     exponent, clamped to the 64-bucket range *)
  check_int "0.75 -> 0" 0 (Obs.Dd_profile.bucket_exponent 0.75);
  check_int "1.0 -> 1" 1 (Obs.Dd_profile.bucket_exponent 1.0);
  check_int "1.5 -> 1" 1 (Obs.Dd_profile.bucket_exponent 1.5);
  check_int "2.0 -> 2" 2 (Obs.Dd_profile.bucket_exponent 2.0);
  check_int "3.0 -> 2" 2 (Obs.Dd_profile.bucket_exponent 3.0);
  check_int "non-positive -> floor" (-32) (Obs.Dd_profile.bucket_exponent 0.);
  check_int "tiny -> floor" (-32) (Obs.Dd_profile.bucket_exponent 1e-300);
  check_int "huge -> ceiling" 31 (Obs.Dd_profile.bucket_exponent 1e300)

let suite =
  [
    Alcotest.test_case "ghz profile" `Quick test_ghz_profile;
    Alcotest.test_case "plus-state profile" `Quick test_plus_state_profile;
    Alcotest.test_case "basis-state profile" `Quick test_basis_state_profile;
    Alcotest.test_case "edge totals consistent" `Quick
      test_edge_totals_consistent;
    Alcotest.test_case "matrix identity profile" `Quick
      test_matrix_profile_identity;
    Alcotest.test_case "null sink off" `Quick test_null_sink_is_off;
    Alcotest.test_case "disabled probe allocates nothing" `Quick
      test_disabled_probe_allocates_nothing;
    Alcotest.test_case "cadence" `Quick test_cadence;
    Alcotest.test_case "max snapshots drops" `Quick test_max_snapshots_drops;
    Alcotest.test_case "engine emits profile" `Quick test_engine_emits_profile;
    Alcotest.test_case "profile under combining" `Quick
      test_engine_profile_under_combining;
    Alcotest.test_case "default engine sink is null" `Quick
      test_default_engine_profile_is_null;
    Alcotest.test_case "jsonl round trip" `Quick test_jsonl_round_trip;
    Alcotest.test_case "parse errors located" `Quick
      test_parse_errors_are_located;
    Alcotest.test_case "bucket exponent" `Quick test_bucket_exponent;
  ]
