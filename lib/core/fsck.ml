type report = {
  path : string;
  family : string;
  ok : bool;
  detail : string;
}

let pass ~path ~family detail = { path; family; ok = true; detail }
let fail ~path ~family detail = { path; family; ok = false; detail }

let to_string r =
  Printf.sprintf "%s: %s %s (%s)" r.path
    (if r.ok then "OK" else "FAIL")
    r.family r.detail

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Parsing into a throwaway context exercises the full validation chain:
   checksum trailer, header, record fields, DD reconstruction, height. *)
let check_checkpoint ~path text =
  let context = Dd.Context.create () in
  match Checkpoint.of_string context ~source:path text with
  | cp ->
    pass ~path ~family:"checkpoint"
      (Printf.sprintf "gate %d, %d qubits, strategy %s"
         cp.Checkpoint.gate_index cp.Checkpoint.qubits
         (Strategy.to_string cp.Checkpoint.strategy))
  | exception Error.Error e ->
    fail ~path ~family:"checkpoint" (Error.to_string e)

(* A JSONL sidecar passes when its family's strict reader accepts it and
   [rule] finds no fault in its records.  [rule i state record] sees each
   record in order and returns the next state, or the fault. *)
let check_jsonl ~path ~family ~summary parse rule init text =
  match parse text with
  | exception Failure message -> fail ~path ~family message
  | records ->
    let rec scan i state = function
      | [] -> pass ~path ~family (summary (List.length records))
      | record :: rest -> (
        match rule i state record with
        | Ok state -> scan (i + 1) state rest
        | Error detail -> fail ~path ~family detail)
    in
    scan 0 init records

let check_trace ~path =
  check_jsonl ~path ~family:"trace"
    ~summary:(fun n ->
      Printf.sprintf "%d events, schema v%d" n Obs.Trace_export.version)
    (fun text -> (Obs.Trace_report.parse_jsonl text).Obs.Trace_report.events)
    (fun i last (e : Obs.Trace.event) ->
      if e.dur < 0. then
        Error (Printf.sprintf "event %d carries a negative duration" i)
      else if e.kind = Obs.Trace.Gate_applied && e.gate_index >= 0 then
        if e.gate_index < last then
          Error
            (Printf.sprintf "event %d: gate index %d goes backwards (after %d)"
               i e.gate_index last)
        else Ok e.gate_index
      else Ok last)
    (-1)

let check_profile ~path =
  check_jsonl ~path ~family:"profile"
    ~summary:(Printf.sprintf "%d snapshots")
    (fun text -> (Obs.Dd_profile.parse_jsonl text).Obs.Dd_profile.run_snapshots)
    (fun i last (s : Obs.Dd_profile.snapshot) ->
      if s.gate_index < last then
        Error
          (Printf.sprintf "snapshot %d: gate index %d goes backwards (after %d)"
             i s.gate_index last)
      else Ok s.gate_index)
    (-1)

let check_ledger ~path =
  check_jsonl ~path ~family:"ledger"
    ~summary:(Printf.sprintf "%d entries")
    (fun text -> (Obs.Ledger.parse_jsonl text).Obs.Ledger.run_entries)
    (fun i last_start (e : Obs.Ledger.entry) ->
      if e.gate_end < e.gate_start then
        Error
          (Printf.sprintf "entry %d: gate range [%d,%d) is inverted" i
             e.gate_start e.gate_end)
      else if e.build_seconds < 0. || e.apply_seconds < 0. then
        Error (Printf.sprintf "entry %d carries a negative duration" i)
      else if e.gate_start < last_start then
        Error
          (Printf.sprintf "entry %d: gate start %d goes backwards (after %d)" i
             e.gate_start last_start)
      else Ok e.gate_start)
    min_int

let check_file ~path =
  match read_file path with
  | exception Sys_error message -> fail ~path ~family:"unknown" message
  | text -> (
    match Obs.Jsonl.schema_of text with
    | Some s when s = Checkpoint.schema -> check_checkpoint ~path text
    | Some s when s = Obs.Trace_export.schema -> check_trace ~path text
    | Some s when s = Obs.Dd_profile.schema -> check_profile ~path text
    | Some s when s = Obs.Ledger.schema -> check_ledger ~path text
    | Some s ->
      fail ~path ~family:"unknown" (Printf.sprintf "unrecognised schema %S" s)
    | None when Checkpoint.is_legacy text -> check_checkpoint ~path text
    | None -> fail ~path ~family:"unknown" "unrecognised artifact format")
