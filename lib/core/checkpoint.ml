let schema = "ddsim-checkpoint"

(* Only this version is read: every checkpoint is regenerable by
   re-running.  The stats object is keyed by counter name, so a new
   counter does not change the format. *)
let version = 9

(* Versions 1-8 were plain text opening with a "ddsim-checkpoint
   <version>" line; that line alone is still read, to refuse such a file
   by version rather than as garbage. *)
let legacy_header = schema ^ " "
let is_legacy text = String.starts_with ~prefix:legacy_header text

type t = {
  qubits : int;
  gate_index : int;
  strategy : Strategy.t;
  order : Dd.Order.t;
  context : Dd.Context.t;
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
    context = Engine.context engine;
    state = Engine.state engine;
    rng = Random.State.copy (Engine.rng engine);
    stats = Sim_stats.copy (Engine.stats engine);
  }

(* The RNG state has no stable textual form of its own; Marshal gives a
   byte-exact snapshot, hex keeps it a plain JSON string. *)
let hex_encode bytes =
  let buffer = Buffer.create (2 * String.length bytes) in
  String.iter
    (fun c -> Buffer.add_string buffer (Printf.sprintf "%02x" (Char.code c)))
    bytes;
  Buffer.contents buffer

let hex_decode text =
  let n = String.length text in
  if n mod 2 <> 0 then failwith "odd-length hex field";
  String.init (n / 2) (fun i ->
      match int_of_string_opt ("0x" ^ String.sub text (2 * i) 2) with
      | Some code -> Char.chr code
      | None -> failwith "malformed hex field")

let json_object fields =
  "{"
  ^ String.concat ","
      (List.map (fun (key, value) -> Printf.sprintf "\"%s\":%s" key value)
         fields)
  ^ "}"

let json_string s = Printf.sprintf "\"%s\"" (Obs.Json.escape s)

let to_string checkpoint =
  (* %.17g: float_of_string reads every float back bit for bit *)
  let stats =
    List.map
      (function
        | Sim_stats.Int (name, get, _) ->
          (name, string_of_int (get checkpoint.stats))
        | Sim_stats.Float (name, get, _) ->
          (name, Printf.sprintf "%.17g" (get checkpoint.stats)))
      Sim_stats.fields
  in
  json_object
    [
      ("qubits", string_of_int checkpoint.qubits);
      ("gate_index", string_of_int checkpoint.gate_index);
      ("strategy", json_string (Strategy.to_string checkpoint.strategy));
      ("order", json_string (Dd.Order.to_string checkpoint.order));
      ( "rng",
        json_string (hex_encode (Marshal.to_string checkpoint.rng [])) );
      ("stats", json_object stats);
      ( "state",
        json_string
          (Dd.Serialize.vector_to_string checkpoint.context checkpoint.state)
      );
    ]
  |> Seq.return
  |> Obs.Jsonl.write ~schema ~version ~counts:[] ~meta:[]

(* -- reading: every fault raises Failure, which Obs.Jsonl locates ------ *)

let member json key =
  match Obs.Json.member json key with
  | Some value -> value
  | None -> failwith (Printf.sprintf "missing %S" key)

let to_int ~what = function
  | Obs.Json.Num v when Float.is_integer v -> int_of_float v
  | _ -> failwith (what ^ " is not an integer")

let to_num ~what = function
  | Obs.Json.Num v -> v
  | _ -> failwith (what ^ " is not a number")

let to_str ~what = function
  | Obs.Json.Str s -> s
  | _ -> failwith (what ^ " is not a string")

(* a counter the document lacks reads as zero, like on a fresh run *)
let stats_of_json json =
  let stats = Sim_stats.create () in
  let read name decode set =
    Option.iter
      (fun v -> set stats (decode ~what:("stats." ^ name) v))
      (Obs.Json.member json name)
  in
  List.iter
    (function
      | Sim_stats.Int (name, _, set) -> read name to_int set
      | Sim_stats.Float (name, _, set) -> read name to_num set)
    Sim_stats.fields;
  stats

let decode context json =
  let int key = to_int ~what:key (member json key) in
  let str key = to_str ~what:key (member json key) in
  let qubits = int "qubits" in
  if qubits < 1 then failwith "qubits must be >= 1";
  let gate_index = int "gate_index" in
  if gate_index < 0 then failwith "gate_index must be >= 0";
  let strategy =
    match Strategy.of_string (str "strategy") with
    | Ok s -> s
    | Error message -> failwith message
  in
  let order =
    try Dd.Order.of_string (str "order")
    with Invalid_argument message -> failwith message
  in
  let rng =
    let bytes = hex_decode (str "rng") in
    try (Marshal.from_string bytes 0 : Random.State.t)
    with Failure message -> failwith ("bad rng snapshot: " ^ message)
  in
  let stats = stats_of_json (member json "stats") in
  let state =
    try Dd.Serialize.vector_of_string context (str "state")
    with Dd.Dd_error.Error e -> failwith (Dd.Dd_error.to_string e)
  in
  if Dd.Types.v_height state <> qubits then
    failwith
      (Printf.sprintf "state has height %d, expected %d qubits"
         (Dd.Types.v_height state) qubits);
  if not (Dd.Order.is_identity order) && Dd.Order.size order <> qubits then
    failwith
      (Printf.sprintf "order covers %d levels, expected %d qubits"
         (Dd.Order.size order) qubits);
  { qubits; gate_index; strategy; order; context; state; rng; stats }

let invalid ~source message =
  Error.raise_error (Error.Invalid_checkpoint { source; message })

let of_string context ?(source = "<string>") text =
  if is_legacy text then begin
    let header = List.hd (String.split_on_char '\n' text) in
    let n = String.length legacy_header in
    let raw = String.sub header n (String.length header - n) in
    match int_of_string_opt raw with
    | Some v when v >= 1 && v < version ->
      invalid ~source
        (Printf.sprintf
           "checkpoint format version %d is no longer readable (current is \
            %d); re-run the simulation to regenerate it"
           v version)
    | _ -> invalid ~source (Printf.sprintf "bad header %S" header)
  end;
  match Obs.Jsonl.read ~schema ~version ~record:(decode context) text with
  | { records = [ checkpoint ]; _ } -> checkpoint
  | { records; _ } ->
    invalid ~source
      (Printf.sprintf "expected one checkpoint record, found %d"
         (List.length records))
  | exception Failure message -> invalid ~source message

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
  (* the state's weights are tags of the table that loaded it; read
     through another context they name other values *)
  if checkpoint.context != Engine.context engine then
    invalid ~source:"Checkpoint.restore"
      "the checkpoint was loaded into another context than the engine's";
  Dd.Context.set_order (Engine.context engine) checkpoint.order;
  Engine.set_state engine checkpoint.state;
  Engine.set_rng engine (Random.State.copy checkpoint.rng);
  Sim_stats.assign (Engine.stats engine) checkpoint.stats;
  checkpoint.gate_index
