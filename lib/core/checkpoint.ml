let format_magic = "ddsim-checkpoint"

(* version 2: the stats line gained gc_reclaimed_nodes and
   gc_pause_seconds (the latter as a lossless hex float);
   version 3: the stats line gained fast_path_applies and
   generic_applies (the structured-apply dispatch counters);
   version 4: the stats line gained trace_events_dropped and
   wall_time_seconds (hex float);
   version 5: the stats line gained the auditor counters (audits_run,
   audit_violations, audit_repairs) and the file gained a mandatory
   [checksum <hex>] trailer line (FNV-1a over everything before it);
   version 6: the file gained an [order <spec>] line (the live
   level<->qubit variable order, [Dd.Order.to_string] syntax) between
   the strategy and rng lines, and the stats line gained the four
   reordering counters (reorders_run, reorder_swaps,
   reorder_nodes_before, reorder_nodes_after);
   version 7: the stats line gained domains (the [--domains] pool size,
   so a resumed run keeps its parallelism);
   version 8: the stats line dropped domains again (the engine runs on
   one domain), leaving 23 fields.
   Only the current version is read: every checkpoint is regenerable by
   re-running, so an older header is rejected with a message saying so. *)
let format_version = 8

type t = {
  qubits : int;
  gate_index : int;
  strategy : Strategy.t;
  order : Dd.Order.t;
  state : Dd.Vdd.edge;
  rng : Random.State.t;
  stats : Sim_stats.t;
}

let snapshot engine ~strategy ~gate_index =
  {
    qubits = Engine.qubits engine;
    gate_index;
    strategy;
    order = Dd.Context.order (Engine.context engine);
    state = Engine.state engine;
    rng = Random.State.copy (Engine.rng engine);
    stats = Sim_stats.copy (Engine.stats engine);
  }

(* The RNG state has no stable textual form of its own; Marshal gives a
   byte-exact snapshot, hex keeps the checkpoint file plain text. *)
let hex_encode bytes =
  let buffer = Buffer.create (2 * String.length bytes) in
  String.iter
    (fun c -> Buffer.add_string buffer (Printf.sprintf "%02x" (Char.code c)))
    bytes;
  Buffer.contents buffer

let invalid ~source message =
  Error.raise_error (Error.Invalid_checkpoint { source; message })

let hex_decode ~source text =
  let n = String.length text in
  if n mod 2 <> 0 then invalid ~source "odd-length hex field";
  String.init (n / 2) (fun i ->
      match int_of_string_opt ("0x" ^ String.sub text (2 * i) 2) with
      | Some code -> Char.chr code
      | None -> invalid ~source "malformed hex field")

let to_string checkpoint =
  let stats = checkpoint.stats in
  let body =
    String.concat "\n"
      [
        Printf.sprintf "%s %d" format_magic format_version;
        Printf.sprintf "qubits %d" checkpoint.qubits;
        Printf.sprintf "gate_index %d" checkpoint.gate_index;
        Printf.sprintf "strategy %s" (Strategy.to_string checkpoint.strategy);
        Printf.sprintf "order %s" (Dd.Order.to_string checkpoint.order);
        Printf.sprintf "rng %s"
          (hex_encode (Marshal.to_string checkpoint.rng []));
        Printf.sprintf
          "stats %d %d %d %d %d %d %d %d %d %d %d %d %d %h %d %h %d %d %d %d \
           %d %d %d"
          stats.Sim_stats.mat_vec_mults stats.Sim_stats.mat_mat_mults
          stats.Sim_stats.gates_seen stats.Sim_stats.combined_applications
          stats.Sim_stats.peak_state_nodes stats.Sim_stats.peak_matrix_nodes
          stats.Sim_stats.fallbacks stats.Sim_stats.auto_gcs
          stats.Sim_stats.renormalizations stats.Sim_stats.checkpoints_written
          stats.Sim_stats.fast_path_applies stats.Sim_stats.generic_applies
          stats.Sim_stats.gc_reclaimed_nodes stats.Sim_stats.gc_pause_seconds
          stats.Sim_stats.trace_events_dropped
          stats.Sim_stats.wall_time_seconds stats.Sim_stats.audits_run
          stats.Sim_stats.audit_violations stats.Sim_stats.audit_repairs
          stats.Sim_stats.reorders_run stats.Sim_stats.reorder_swaps
          stats.Sim_stats.reorder_nodes_before
          stats.Sim_stats.reorder_nodes_after;
        "state";
        Dd.Serialize.vector_to_string checkpoint.state;
      ]
  in
  (* body ends with a newline (the serialized DD's); the trailer covers
     every byte before itself, so truncation or garbling anywhere in the
     file is detectable *)
  body ^ "checksum " ^ Obs.Safe_io.checksum body ^ "\n"

let of_string context ?(source = "<string>") text =
  let body, trailer = Obs.Safe_io.split_text_trailer text in
  (match trailer with
  | Some expected when Obs.Safe_io.checksum body <> expected ->
    invalid ~source "checksum mismatch (file truncated or corrupted)"
  | _ -> ());
  let lines = String.split_on_char '\n' body in
  let field ~name line =
    let prefix = name ^ " " in
    let plen = String.length prefix in
    if String.length line > plen && String.sub line 0 plen = prefix then
      String.sub line plen (String.length line - plen)
    else
      invalid ~source
        (Printf.sprintf "expected %S line, got %S" name line)
  in
  let int_field ~name line =
    let raw = field ~name line in
    match int_of_string_opt raw with
    | Some v -> v
    | None ->
      invalid ~source (Printf.sprintf "%s is not an integer: %S" name raw)
  in
  (* [split_on_char] never returns an empty list *)
  let header = List.hd lines in
  (match String.split_on_char ' ' header with
  | [ magic; v ] when magic = format_magic -> (
    match int_of_string_opt v with
    | Some v when v = format_version -> ()
    | Some v when v >= 1 && v < format_version ->
      invalid ~source
        (Printf.sprintf
           "checkpoint format version %d is no longer readable (current is \
            %d); re-run the simulation to regenerate it"
           v format_version)
    | _ -> invalid ~source (Printf.sprintf "bad header %S" header))
  | _ -> invalid ~source (Printf.sprintf "bad header %S" header));
  if trailer = None then invalid ~source "missing checksum trailer";
  match lines with
  | _header :: qubits :: gate_index :: strategy :: order :: rng :: stats
    :: marker :: state_lines ->
    let order =
      match Dd.Order.of_string (field ~name:"order" order) with
      | order -> order
      | exception Invalid_argument message -> invalid ~source message
    in
    let qubits = int_field ~name:"qubits" qubits in
    if qubits < 1 then invalid ~source "qubits must be >= 1";
    let gate_index = int_field ~name:"gate_index" gate_index in
    if gate_index < 0 then invalid ~source "gate_index must be >= 0";
    let strategy =
      match Strategy.of_string (field ~name:"strategy" strategy) with
      | Ok s -> s
      | Error message -> invalid ~source message
    in
    let rng =
      let bytes = hex_decode ~source (field ~name:"rng" rng) in
      try (Marshal.from_string bytes 0 : Random.State.t)
      with Failure message ->
        invalid ~source (Printf.sprintf "bad rng snapshot: %s" message)
    in
    let stats_record = Sim_stats.create () in
    let stats_int raw =
      match int_of_string_opt raw with
      | Some v -> v
      | None ->
        invalid ~source
          (Printf.sprintf "stats field is not an integer: %S" raw)
    in
    let stats_float raw =
      match float_of_string_opt raw with
      | Some v -> v
      | None ->
        invalid ~source (Printf.sprintf "stats field is not a float: %S" raw)
    in
    (match field ~name:"stats" stats |> String.split_on_char ' ' with
    | [ mv; mm; gs; ca; ps; pm; fb; gc; rn; cw; fp; ga; gr; gp; td; wt; au;
        av; ar; rr; rs; rb; ra ] ->
      stats_record.Sim_stats.mat_vec_mults <- stats_int mv;
      stats_record.Sim_stats.mat_mat_mults <- stats_int mm;
      stats_record.Sim_stats.gates_seen <- stats_int gs;
      stats_record.Sim_stats.combined_applications <- stats_int ca;
      stats_record.Sim_stats.peak_state_nodes <- stats_int ps;
      stats_record.Sim_stats.peak_matrix_nodes <- stats_int pm;
      stats_record.Sim_stats.fallbacks <- stats_int fb;
      stats_record.Sim_stats.auto_gcs <- stats_int gc;
      stats_record.Sim_stats.renormalizations <- stats_int rn;
      stats_record.Sim_stats.checkpoints_written <- stats_int cw;
      stats_record.Sim_stats.fast_path_applies <- stats_int fp;
      stats_record.Sim_stats.generic_applies <- stats_int ga;
      stats_record.Sim_stats.gc_reclaimed_nodes <- stats_int gr;
      stats_record.Sim_stats.gc_pause_seconds <- stats_float gp;
      stats_record.Sim_stats.trace_events_dropped <- stats_int td;
      stats_record.Sim_stats.wall_time_seconds <- stats_float wt;
      stats_record.Sim_stats.audits_run <- stats_int au;
      stats_record.Sim_stats.audit_violations <- stats_int av;
      stats_record.Sim_stats.audit_repairs <- stats_int ar;
      stats_record.Sim_stats.reorders_run <- stats_int rr;
      stats_record.Sim_stats.reorder_swaps <- stats_int rs;
      stats_record.Sim_stats.reorder_nodes_before <- stats_int rb;
      stats_record.Sim_stats.reorder_nodes_after <- stats_int ra
    | _ -> invalid ~source "stats line must carry exactly 23 fields");
    if marker <> "state" then
      invalid ~source (Printf.sprintf "expected \"state\" marker, got %S" marker);
    let state =
      let body = String.concat "\n" state_lines in
      try Dd.Serialize.vector_of_string context body with
      | Dd.Dd_error.Error e ->
        invalid ~source (Dd.Dd_error.to_string e)
      | Failure message -> invalid ~source message
    in
    if Dd.Types.v_height state <> qubits then
      invalid ~source
        (Printf.sprintf "state has height %d, expected %d qubits"
           (Dd.Types.v_height state) qubits);
    if not (Dd.Order.is_identity order) && Dd.Order.size order <> qubits
    then
      invalid ~source
        (Printf.sprintf "order covers %d levels, expected %d qubits"
           (Dd.Order.size order) qubits);
    { qubits; gate_index; strategy; order; state; rng; stats = stats_record }
  | _ -> invalid ~source "truncated checkpoint"

let save engine ~strategy ~gate_index ~path =
  let checkpoint = snapshot engine ~strategy ~gate_index in
  (* rotate the last good generation to PATH.prev before the atomic
     write, so even a latest file corrupted at rest (bad disk, stray
     write) leaves a resume point *)
  if Sys.file_exists path then begin
    try Sys.rename path (path ^ ".prev") with Sys_error _ -> ()
  end;
  Obs.Safe_io.write_file path (to_string checkpoint)

let load context ~path =
  let text =
    try Dd.Serialize.read_file path
    with Sys_error message -> invalid ~source:path message
  in
  of_string context ~source:path text

type generation = Current | Previous

let load_latest context ~path =
  match load context ~path with
  | checkpoint -> (checkpoint, Current)
  | exception
      Error.Error
        (Error.Invalid_checkpoint { message = current_message; _ }) -> (
    match load context ~path:(path ^ ".prev") with
    | checkpoint -> (checkpoint, Previous)
    | exception
        Error.Error
          (Error.Invalid_checkpoint { message = previous_message; _ }) ->
      (* both generations failed: report each file with its own reason,
         not just the first failure — the user needs to know the rotated
         generation was tried and why it was rejected too *)
      invalid ~source:path
        (Printf.sprintf
           "no loadable generation: %s (and fallback %s.prev: %s)"
           current_message path previous_message))

let restore engine checkpoint =
  if checkpoint.qubits <> Engine.qubits engine then
    Error.raise_error
      (Error.Width_mismatch
         {
           what = "Checkpoint.restore";
           expected = Engine.qubits engine;
           actual = checkpoint.qubits;
         });
  Dd.Context.set_order (Engine.context engine) checkpoint.order;
  Engine.set_state engine checkpoint.state;
  Engine.set_rng engine (Random.State.copy checkpoint.rng);
  Sim_stats.assign (Engine.stats engine) checkpoint.stats;
  checkpoint.gate_index
