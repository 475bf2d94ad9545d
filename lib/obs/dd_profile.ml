type level = {
  level : int;
  qubit : int;  (* qubit hosted at this level; = level under identity order *)
  nodes : int;
  edges : int;
  zero_edges : int;
  weights : (int * int) list;
}

type snapshot = {
  gate_index : int;
  t : float;
  dd : string;
  nodes : int;
  edges : int;
  sharing : float;
  identity_fraction : float;
  levels : level list;
}

let bucket_exponent v =
  if v <= 0. then -32
  else
    let _, e = Float.frexp v in
    if e < -32 then -32 else if e > 31 then 31 else e

(* -- sinks ----------------------------------------------------------- *)

type sink = {
  mutable on : bool;
  cadence : int;
  max_snapshots : int;
  mutable last : int;  (* gate index of the last emission; -1 initially *)
  mutable count : int;
  mutable drop_count : int;
  mutable items : snapshot list;  (* reversed *)
}

let null =
  {
    on = false;
    cadence = max_int;
    max_snapshots = 0;
    last = -1;
    count = 0;
    drop_count = 0;
    items = [];
  }

let create ?(every = 1) ?(max_snapshots = 65536) () =
  if every < 1 then invalid_arg "Dd_profile.create: every must be >= 1";
  {
    on = true;
    cadence = every;
    max_snapshots;
    last = -1;
    count = 0;
    drop_count = 0;
    items = [];
  }

let is_on sink = sink.on
let every sink = sink.cadence

(* the disabled path must not allocate: one load, one branch *)
let due sink ~gate =
  sink.on && (sink.last < 0 || gate - sink.last >= sink.cadence)

let emit sink snapshot =
  if sink.on then begin
    sink.last <- snapshot.gate_index;
    if sink.count >= sink.max_snapshots then
      sink.drop_count <- sink.drop_count + 1
    else begin
      sink.items <- snapshot :: sink.items;
      sink.count <- sink.count + 1
    end
  end

let last_gate sink = sink.last
let snapshots sink = List.rev sink.items
let length sink = sink.count
let dropped sink = sink.drop_count

(* -- JSONL sidecar --------------------------------------------------- *)

let schema = "ddsim-profile"
let version = 1

let pairs_json pairs =
  "["
  ^ String.concat ","
      (List.map (fun (a, b) -> Printf.sprintf "[%d,%d]" a b) pairs)
  ^ "]"

let level_to_json l =
  Printf.sprintf
    "{\"level\":%d,\"qubit\":%d,\"nodes\":%d,\"edges\":%d,\"zero_edges\":%d,\"weights\":%s}"
    l.level l.qubit l.nodes l.edges l.zero_edges (pairs_json l.weights)

let snapshot_to_json s =
  Printf.sprintf
    "{\"gate\":%d,\"t\":%.9g,\"dd\":\"%s\",\"nodes\":%d,\"edges\":%d,\"sharing\":%.6f,\"identity_fraction\":%.6f,\"levels\":[%s]}"
    s.gate_index s.t (Json.escape s.dd) s.nodes s.edges s.sharing
    s.identity_fraction
    (String.concat "," (List.map level_to_json s.levels))

let jsonl ?(meta = []) sink =
  Jsonl.write ~schema ~version
    ~counts:
      [
        ("every", sink.cadence);
        ("snapshots", sink.count);
        ("dropped", sink.drop_count);
      ]
    ~meta
    (Seq.map snapshot_to_json (List.to_seq (snapshots sink)))

(* -- bulge detection -------------------------------------------------- *)

(* A "level bulge" — one level holding disproportionately many nodes — is
   the structural signature of a bad variable order (entangled qubits
   forced far apart).  Detected against the median per-level count so a
   uniformly large DD does not trigger; [min_nodes] keeps tiny DDs from
   tripping on noise.  Returns the worst bulging level. *)
let bulge ?(factor = 4.0) ?(min_nodes = 16) counts =
  let n = Array.length counts in
  if n = 0 then None
  else begin
    let sorted = Array.copy counts in
    Array.sort compare sorted;
    let median = float_of_int sorted.(n / 2) in
    let worst = ref (-1) in
    Array.iteri
      (fun level count ->
        if
          count >= min_nodes
          && float_of_int count > factor *. median
          && (!worst < 0 || count > counts.(!worst))
        then worst := level)
      counts;
    if !worst < 0 then None else Some !worst
  end

type run = {
  run_meta : (string * string) list;
  run_every : int;
  run_snapshots : snapshot list;
}

let parse_pairs = function
  | Json.Arr entries ->
    List.map
      (function
        | Json.Arr [ Json.Num a; Json.Num b ] ->
          (int_of_float a, int_of_float b)
        | _ -> failwith "expected a [int,int] pair")
      entries
  | _ -> failwith "expected an array of pairs"

let parse_level json =
  let level = Jsonl.int json "level" ~default:(-1) in
  {
    level;
    (* absent in sidecars written before variable reordering existed,
       which could only mean the identity order *)
    qubit = Jsonl.int json "qubit" ~default:level;
    nodes = Jsonl.int json "nodes" ~default:0;
    edges = Jsonl.int json "edges" ~default:0;
    zero_edges = Jsonl.int json "zero_edges" ~default:0;
    weights =
      (match Json.member json "weights" with
      | Some w -> parse_pairs w
      | None -> []);
  }

let parse_snapshot json =
  {
    gate_index = Jsonl.int json "gate" ~default:(-1);
    t = Jsonl.num json "t" ~default:0.;
    dd = Jsonl.str json "dd" ~default:"vector";
    nodes = Jsonl.int json "nodes" ~default:0;
    edges = Jsonl.int json "edges" ~default:0;
    sharing = Jsonl.num json "sharing" ~default:0.;
    identity_fraction = Jsonl.num json "identity_fraction" ~default:0.;
    levels =
      (match Json.member json "levels" with
      | Some (Json.Arr ls) -> List.map parse_level ls
      | _ -> []);
  }

let parse_jsonl text =
  let doc = Jsonl.read ~schema ~version ~record:parse_snapshot text in
  {
    run_meta = doc.meta;
    run_every = Jsonl.int doc.header "every" ~default:1;
    run_snapshots = doc.records;
  }
