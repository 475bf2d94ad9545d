(* Crash-safe artifact I/O: the Safe_io checksum/trailer layer, checkpoint
   format versions and rotation, and the [ddsim fsck] library
   verdicts on healthy and corrupted artifacts. *)

open Util

let run_engine circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run engine circuit;
  engine

let checkpoint_text () =
  let engine = run_engine (Standard.random_circuit ~seed:41 ~qubits:4 ~gates:25 ()) in
  Dd_sim.Checkpoint.to_string
    (Dd_sim.Checkpoint.snapshot engine ~strategy:Dd_sim.Strategy.Sequential
       ~gate_index:25)

let temp_path suffix = Filename.temp_file "ddsim_fsck" suffix

let cleanup path =
  if Sys.file_exists path then Sys.remove path;
  if Sys.file_exists (path ^ ".prev") then Sys.remove (path ^ ".prev")

let invalid_checkpoint_rejects text =
  match Dd_sim.Checkpoint.of_string (fresh_ctx ()) ~source:"test" text with
  | _ -> false
  | exception Dd_sim.Error.Error (Dd_sim.Error.Invalid_checkpoint _) -> true

(* -- Safe_io ------------------------------------------------------------- *)

let test_checksum_values () =
  (* FNV-1a 64 offset basis: the hash of the empty string *)
  Alcotest.(check string) "empty string" "cbf29ce484222325"
    (Obs.Safe_io.checksum "");
  Alcotest.(check string)
    "deterministic"
    (Obs.Safe_io.checksum "ddsim")
    (Obs.Safe_io.checksum "ddsim");
  check_bool "different input, different hash" true
    (Obs.Safe_io.checksum "ddsim" <> Obs.Safe_io.checksum "ddsin");
  check_int "16 hex digits" 16 (String.length (Obs.Safe_io.checksum "x"))

let test_jsonl_trailer_roundtrip () =
  let body = "{\"schema\":\"x\"}\n{\"a\":1}\n" in
  let text = body ^ Obs.Safe_io.jsonl_trailer body in
  let split_body, trailer = Obs.Safe_io.split_jsonl_trailer text in
  Alcotest.(check string) "body preserved byte-for-byte" body split_body;
  check_bool "trailer recovered and verifies" true
    (trailer = Some (Obs.Safe_io.checksum body))

let test_jsonl_trailer_absent () =
  let text = "{\"schema\":\"x\"}\n{\"a\":1}\n" in
  let body, trailer = Obs.Safe_io.split_jsonl_trailer text in
  Alcotest.(check string) "text unchanged" text body;
  check_bool "no trailer" true (trailer = None)

let test_write_file_atomic () =
  let path = temp_path ".txt" in
  Obs.Safe_io.write_file path "first\n";
  Obs.Safe_io.write_file path "second\n";
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Alcotest.(check string) "replacement is complete" "second\n" contents;
  check_bool "no temp sibling left behind" false
    (Sys.file_exists (path ^ ".tmp"));
  cleanup path

(* -- checkpoint format ----------------------------------------------------- *)

let test_rejects_truncation () =
  let text = checkpoint_text () in
  check_bool "half a file is a structured error" true
    (invalid_checkpoint_rejects
       (String.sub text 0 (String.length text / 2)));
  check_bool "empty file is a structured error" true
    (invalid_checkpoint_rejects "")

let test_rejects_checksum_mismatch () =
  let text = checkpoint_text () in
  let bytes = Bytes.of_string text in
  (* flip one byte in the DD payload, leaving the trailer intact *)
  let i = Bytes.length bytes / 2 in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 1));
  check_bool "bit rot is a structured error" true
    (invalid_checkpoint_rejects (Bytes.to_string bytes))

let test_rejects_missing_trailer () =
  let body, _ = Obs.Safe_io.split_jsonl_trailer (checkpoint_text ()) in
  check_bool "a checkpoint without its trailer is a structured error" true
    (invalid_checkpoint_rejects body)

(* -- rotation and generation fallback ------------------------------------ *)

let saved_engine () =
  run_engine (Standard.random_circuit ~seed:43 ~qubits:3 ~gates:12 ())

let test_save_rotates_previous () =
  let path = temp_path ".ckpt" in
  Sys.remove path;
  let engine = saved_engine () in
  Dd_sim.Checkpoint.save engine ~strategy:Dd_sim.Strategy.Sequential
    ~gate_index:6 ~path;
  check_bool "first save: no previous generation" false
    (Sys.file_exists (path ^ ".prev"));
  Dd_sim.Checkpoint.save engine ~strategy:Dd_sim.Strategy.Sequential
    ~gate_index:12 ~path;
  check_bool "second save rotated the first" true
    (Sys.file_exists (path ^ ".prev"));
  let current, generation = Dd_sim.Checkpoint.load_latest (fresh_ctx ()) ~path in
  check_bool "latest is current" true
    (generation = Dd_sim.Checkpoint.Current);
  check_int "current carries the newer gate" 12
    current.Dd_sim.Checkpoint.gate_index;
  let previous = Dd_sim.Checkpoint.load (fresh_ctx ()) ~path:(path ^ ".prev") in
  check_int "previous carries the older gate" 6
    previous.Dd_sim.Checkpoint.gate_index;
  cleanup path

let test_load_latest_falls_back () =
  let path = temp_path ".ckpt" in
  Sys.remove path;
  let engine = saved_engine () in
  Dd_sim.Checkpoint.save engine ~strategy:Dd_sim.Strategy.Sequential
    ~gate_index:6 ~path;
  Dd_sim.Checkpoint.save engine ~strategy:Dd_sim.Strategy.Sequential
    ~gate_index:12 ~path;
  (* torch the current generation the way a crash mid-sector would *)
  let oc = open_out_bin path in
  output_string oc "ddsim-checkpoint 5\ngarbage";
  close_out oc;
  let cp, generation = Dd_sim.Checkpoint.load_latest (fresh_ctx ()) ~path in
  check_bool "fell back to the previous generation" true
    (generation = Dd_sim.Checkpoint.Previous);
  check_int "previous generation restored" 6 cp.Dd_sim.Checkpoint.gate_index;
  (* both generations bad: the *original* (current) error surfaces *)
  let oc = open_out_bin (path ^ ".prev") in
  output_string oc "also garbage";
  close_out oc;
  check_bool "both bad: structured error, no fallback" true
    (try
       ignore (Dd_sim.Checkpoint.load_latest (fresh_ctx ()) ~path);
       false
     with Dd_sim.Error.Error (Dd_sim.Error.Invalid_checkpoint _) -> true);
  cleanup path

(* -- fsck ---------------------------------------------------------------- *)

let fsck path = Dd_sim.Fsck.check_file ~path

(* A pre-v9 text checkpoint as its writer laid it out: header, fields,
   the positional stats line, the serialized state and a [checksum]
   trailer over everything before it. *)
let text_checkpoint version ~stats_fields =
  let engine = Dd_sim.Engine.create 4 in
  let body =
    String.concat "\n"
      [
        Printf.sprintf "ddsim-checkpoint %d" version;
        "qubits 4";
        "gate_index 25";
        "strategy seq";
        "order identity";
        "rng 00";
        "stats " ^ String.concat " " (List.init stats_fields (fun _ -> "0"));
        "state";
        Dd.Serialize.vector_to_string (Dd_sim.Engine.state engine);
      ]
  in
  body ^ "checksum " ^ Obs.Safe_io.checksum body ^ "\n"

(* Only the current format is read.  Text checkpoints of v8 (23 stats
   fields), v7 (24, the last the pool size) and v6 (23) must be refused
   by version, not misparsed, and so must a JSONL checkpoint of another
   version — by the loader and by fsck alike. *)
let test_rejects_old_version () =
  let rerun version =
    Printf.sprintf
      "checkpoint format version %d is no longer readable (current is 9); \
       re-run the simulation to regenerate it"
      version
  in
  let other_jsonl_version =
    let body, _ = Obs.Safe_io.split_jsonl_trailer (checkpoint_text ()) in
    let v9 = "{\"schema\":\"ddsim-checkpoint\",\"version\":9" in
    let n = String.length v9 in
    check_bool "v9 header" true (String.sub body 0 n = v9);
    sealed_jsonl
      ("{\"schema\":\"ddsim-checkpoint\",\"version\":10"
      ^ String.sub body n (String.length body - n))
  in
  List.iter
    (fun (source, text, expected) ->
      (match Dd_sim.Checkpoint.of_string (fresh_ctx ()) ~source text with
      | _ -> Alcotest.failf "a %s checkpoint was accepted" source
      | exception
          Dd_sim.Error.Error (Dd_sim.Error.Invalid_checkpoint { message; _ })
        ->
        Alcotest.(check string) (source ^ ": names the version") expected
          message);
      let path = temp_path ".ckpt" in
      Obs.Safe_io.write_file path text;
      let report = fsck path in
      check_bool
        (source ^ ": fsck flags it: " ^ Dd_sim.Fsck.to_string report)
        false report.Dd_sim.Fsck.ok;
      Alcotest.(check string) "family" "checkpoint" report.Dd_sim.Fsck.family;
      cleanup path)
    [
      ("v8", text_checkpoint 8 ~stats_fields:23, rerun 8);
      ("v7", text_checkpoint 7 ~stats_fields:24, rerun 7);
      ("v6", text_checkpoint 6 ~stats_fields:23, rerun 6);
      ( "v10",
        other_jsonl_version,
        "checkpoint:1: unsupported schema version 10 (current is 9)" );
    ]

let test_fsck_good_checkpoint () =
  let path = temp_path ".ckpt" in
  Obs.Safe_io.write_file path (checkpoint_text ());
  let report = fsck path in
  check_bool ("healthy checkpoint: " ^ Dd_sim.Fsck.to_string report) true
    report.Dd_sim.Fsck.ok;
  Alcotest.(check string) "family" "checkpoint" report.Dd_sim.Fsck.family;
  cleanup path

let trace_text () =
  let trace = Obs.Trace.create () in
  let engine = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.set_trace engine trace;
  Dd_sim.Engine.run engine
    (Standard.random_circuit ~seed:47 ~qubits:3 ~gates:10 ());
  Obs.Trace_export.jsonl trace

let test_fsck_good_trace () =
  let path = temp_path ".trace.jsonl" in
  Obs.Safe_io.write_file path (trace_text ());
  let report = fsck path in
  check_bool ("healthy trace: " ^ Dd_sim.Fsck.to_string report) true
    report.Dd_sim.Fsck.ok;
  Alcotest.(check string) "family" "trace" report.Dd_sim.Fsck.family;
  cleanup path

let test_fsck_good_profile () =
  let sink = Obs.Dd_profile.create ~every:1 () in
  let engine = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.set_profile engine sink;
  Dd_sim.Engine.run engine
    (Standard.random_circuit ~seed:53 ~qubits:3 ~gates:10 ());
  let path = temp_path ".profile.jsonl" in
  Obs.Safe_io.write_file path (Obs.Dd_profile.jsonl sink);
  let report = fsck path in
  check_bool ("healthy profile: " ^ Dd_sim.Fsck.to_string report) true
    report.Dd_sim.Fsck.ok;
  Alcotest.(check string) "family" "profile" report.Dd_sim.Fsck.family;
  cleanup path

let test_fsck_flags_truncated_trace () =
  let text = trace_text () in
  let path = temp_path ".trace.jsonl" in
  Obs.Safe_io.write_file path (String.sub text 0 (String.length text / 2));
  let report = fsck path in
  check_bool "truncated trace flagged" false report.Dd_sim.Fsck.ok;
  cleanup path

let mentions text fragment =
  let n = String.length fragment in
  let rec scan i =
    i + n <= String.length text
    && (String.sub text i n = fragment || scan (i + 1))
  in
  scan 0

let test_fsck_flags_reordered_trace () =
  (* keep the header, reverse the events, re-seal with a correct trailer:
     every line still parses and the checksum holds, but gate indices
     run backwards *)
  let body, _ = Obs.Safe_io.split_jsonl_trailer (trace_text ()) in
  let lines =
    String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
  in
  let header, events =
    match lines with h :: t -> (h, t) | [] -> assert false
  in
  let text = sealed_jsonl (String.concat "\n" (header :: List.rev events)) in
  let path = temp_path ".trace.jsonl" in
  Obs.Safe_io.write_file path text;
  let report = fsck path in
  check_bool "backwards gate indices flagged" false report.Dd_sim.Fsck.ok;
  check_bool
    ("flagged by the gate-order rule: " ^ report.Dd_sim.Fsck.detail)
    true
    (mentions report.Dd_sim.Fsck.detail "goes backwards");
  cleanup path

(* One small run with every JSONL sink attached plus its checkpoint, and
   each family's strict reader for the document it wrote (the
   checkpoint's structured error read as its message). *)
let sidecars () =
  let trace = Obs.Trace.create () in
  let profile = Obs.Dd_profile.create ~every:2 () in
  let ledger = Obs.Ledger.create () in
  let engine = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.set_trace engine trace;
  Dd_sim.Engine.set_profile engine profile;
  Dd_sim.Engine.set_ledger engine ledger;
  Dd_sim.Engine.run ~strategy:(Dd_sim.Strategy.K_operations 3) engine
    (Standard.random_circuit ~seed:59 ~qubits:3 ~gates:12 ());
  let checkpoint =
    Dd_sim.Checkpoint.snapshot engine
      ~strategy:(Dd_sim.Strategy.K_operations 3) ~gate_index:12
  in
  [
    ( "trace",
      Obs.Trace_export.jsonl trace,
      fun text -> ignore (Obs.Trace_report.parse_jsonl text) );
    ( "profile",
      Obs.Dd_profile.jsonl profile,
      fun text -> ignore (Obs.Dd_profile.parse_jsonl text) );
    ( "ledger",
      Obs.Ledger.jsonl ledger,
      fun text -> ignore (Obs.Ledger.parse_jsonl text) );
    ( "checkpoint",
      Dd_sim.Checkpoint.to_string checkpoint,
      fun text ->
        match Dd_sim.Checkpoint.of_string (fresh_ctx ()) text with
        | _ -> ()
        | exception
            Dd_sim.Error.Error (Dd_sim.Error.Invalid_checkpoint { message; _ })
          ->
          failwith message );
  ]

(* ["<family>:LINE: ..."] *)
let located ~family message =
  let prefix = family ^ ":" in
  let n = String.length prefix in
  String.length message > n
  && String.sub message 0 n = prefix
  && message.[n] >= '0'
  && message.[n] <= '9'

(* A document cut at any line boundary — the header alone, a lost last
   record, a lost trailer — is rejected by its reader with a located
   message and failed by fsck under the right family. *)
let test_truncated_sidecars_rejected () =
  let path = temp_path ".jsonl" in
  List.iter
    (fun (family, text, parse) ->
      parse text;
      let cuts =
        List.init (String.length text - 1) (fun i -> i + 1)
        |> List.filter (fun n -> text.[n - 1] = '\n')
      in
      check_bool (family ^ ": header, records and trailer") true
        (List.length cuts >= 2);
      List.iter
        (fun n ->
          let prefix = String.sub text 0 n in
          let what = Printf.sprintf "%s cut at byte %d" family n in
          (match parse prefix with
          | () -> Alcotest.failf "%s was accepted" what
          | exception Failure message ->
            check_bool
              (Printf.sprintf "%s: %S is located" what message)
              true (located ~family message));
          Obs.Safe_io.write_file path prefix;
          let report = fsck path in
          check_bool (what ^ " fails fsck") false report.Dd_sim.Fsck.ok;
          Alcotest.(check string) (what ^ ": family") family
            report.Dd_sim.Fsck.family)
        cuts)
    (sidecars ());
  cleanup path

let test_fsck_flags_garbage () =
  let path = temp_path ".bin" in
  Obs.Safe_io.write_file path "PK\x03\x04 definitely not ours\n";
  let report = fsck path in
  check_bool "unknown format flagged" false report.Dd_sim.Fsck.ok;
  Alcotest.(check string) "family unknown" "unknown" report.Dd_sim.Fsck.family;
  cleanup path

let test_fsck_missing_file () =
  let report = fsck "/nonexistent/ddsim.ckpt" in
  check_bool "missing file flagged, not raised" false report.Dd_sim.Fsck.ok

let suite =
  [
    Alcotest.test_case "checksum: FNV-1a values" `Quick test_checksum_values;
    Alcotest.test_case "jsonl trailer roundtrip" `Quick
      test_jsonl_trailer_roundtrip;
    Alcotest.test_case "jsonl trailer absent" `Quick test_jsonl_trailer_absent;
    Alcotest.test_case "write_file replaces atomically" `Quick
      test_write_file_atomic;
    Alcotest.test_case "rejects older checkpoint versions" `Quick
      test_rejects_old_version;
    Alcotest.test_case "rejects truncated checkpoints" `Quick
      test_rejects_truncation;
    Alcotest.test_case "rejects checksum mismatch" `Quick
      test_rejects_checksum_mismatch;
    Alcotest.test_case "rejects v5 without trailer" `Quick
      test_rejects_missing_trailer;
    Alcotest.test_case "save rotates the previous generation" `Quick
      test_save_rotates_previous;
    Alcotest.test_case "load_latest falls back, re-raises original" `Quick
      test_load_latest_falls_back;
    Alcotest.test_case "fsck: healthy checkpoint" `Quick
      test_fsck_good_checkpoint;
    Alcotest.test_case "fsck: healthy trace" `Quick test_fsck_good_trace;
    Alcotest.test_case "fsck: healthy profile" `Quick test_fsck_good_profile;
    Alcotest.test_case "fsck: truncated trace" `Quick
      test_fsck_flags_truncated_trace;
    Alcotest.test_case "fsck: reordered trace" `Quick
      test_fsck_flags_reordered_trace;
    Alcotest.test_case "truncated sidecars rejected" `Quick
      test_truncated_sidecars_rejected;
    Alcotest.test_case "fsck: unrecognised file" `Quick test_fsck_flags_garbage;
    Alcotest.test_case "fsck: missing file" `Quick test_fsck_missing_file;
  ]
