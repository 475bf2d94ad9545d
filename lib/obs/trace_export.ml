let schema = "ddsim-trace"
let version = 2

let kind_to_string = function
  | Trace.Gate_applied -> "gate_applied"
  | Trace.Window_combined -> "window_combined"
  | Trace.Mat_vec -> "mat_vec"
  | Trace.Mat_mat -> "mat_mat"
  | Trace.Gc -> "gc"
  | Trace.Fallback -> "fallback"
  | Trace.Renormalize -> "renormalize"
  | Trace.Checkpoint -> "checkpoint"
  | Trace.Measure -> "measure"
  | Trace.Audit -> "audit"
  | Trace.Reorder -> "reorder"
  | Trace.Pool_section -> "pool_section"

let kind_of_string = function
  | "gate_applied" -> Some Trace.Gate_applied
  | "window_combined" -> Some Trace.Window_combined
  | "mat_vec" -> Some Trace.Mat_vec
  | "mat_mat" -> Some Trace.Mat_mat
  | "gc" -> Some Trace.Gc
  | "fallback" -> Some Trace.Fallback
  | "renormalize" -> Some Trace.Renormalize
  | "checkpoint" -> Some Trace.Checkpoint
  | "measure" -> Some Trace.Measure
  | "audit" -> Some Trace.Audit
  | "reorder" -> Some Trace.Reorder
  | "pool_section" -> Some Trace.Pool_section
  | _ -> None

(* %.9g keeps nanosecond resolution on second-scale timestamps without
   printing 17 digits for every event *)
let event_to_json (e : Trace.event) =
  (* [domain] is emitted only for worker lanes, so a single-lane trace
     carries no domain fields at all *)
  let domain_field =
    if e.domain > 0 then Printf.sprintf ",\"domain\":%d" e.domain else ""
  in
  Printf.sprintf
    "{\"kind\":\"%s\",\"t\":%.9g,\"dur\":%.9g,\"gate\":%d,\"state_nodes\":%d,\"matrix_nodes\":%d,\"hits\":%d,\"misses\":%d%s,\"detail\":\"%s\"}"
    (kind_to_string e.kind) e.t e.dur e.gate_index e.state_nodes
    e.matrix_nodes e.hits e.misses domain_field (Json.escape e.detail)

let jsonl ?(meta = []) trace =
  Jsonl.write ~schema ~version
    ~counts:[ ("events", Trace.length trace); ("dropped", Trace.dropped trace) ]
    ~meta
    (Seq.map event_to_json (Array.to_seq (Trace.events trace)))

let chrome_args (e : Trace.event) =
  let fields = ref [] in
  let push k v = fields := Printf.sprintf "\"%s\":%s" k v :: !fields in
  if e.detail <> "" then
    push "detail" (Printf.sprintf "\"%s\"" (Json.escape e.detail));
  if e.misses > 0 || e.hits > 0 then begin
    push "misses" (string_of_int e.misses);
    push "hits" (string_of_int e.hits)
  end;
  if e.matrix_nodes >= 0 then push "matrix_nodes" (string_of_int e.matrix_nodes);
  if e.state_nodes >= 0 then push "state_nodes" (string_of_int e.state_nodes);
  if e.gate_index >= 0 then push "gate" (string_of_int e.gate_index);
  "{" ^ String.concat "," !fields ^ "}"

let chrome ?(meta = []) trace =
  let buffer = Buffer.create 4096 in
  Buffer.add_string buffer "{\"traceEvents\":[";
  let first = ref true in
  Trace.iter
    (fun (e : Trace.event) ->
      if !first then first := false else Buffer.add_char buffer ',';
      let ts_us = e.t *. 1e6 in
      if e.dur > 0. then
        Buffer.add_string buffer
          (Printf.sprintf
             "\n{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":%s}"
             (kind_to_string e.kind) ts_us (e.dur *. 1e6) (e.domain + 1)
             (chrome_args e))
      else
        Buffer.add_string buffer
          (Printf.sprintf
             "\n{\"name\":\"%s\",\"ph\":\"i\",\"ts\":%.3f,\"s\":\"t\",\"pid\":1,\"tid\":%d,\"args\":%s}"
             (kind_to_string e.kind) ts_us (e.domain + 1) (chrome_args e)))
    trace;
  Buffer.add_string buffer "\n],";
  Buffer.add_string buffer
    (Printf.sprintf "\"displayTimeUnit\":\"ms\",\"otherData\":%s}"
       (Jsonl.meta_json
          (meta
          @ [
              ("schema", schema);
              ("version", string_of_int version);
              ("dropped", string_of_int (Trace.dropped trace));
            ])));
  Buffer.contents buffer

let all_kinds =
  [
    Trace.Gate_applied;
    Trace.Window_combined;
    Trace.Mat_vec;
    Trace.Mat_mat;
    Trace.Gc;
    Trace.Fallback;
    Trace.Renormalize;
    Trace.Checkpoint;
    Trace.Measure;
    Trace.Audit;
    Trace.Reorder;
    Trace.Pool_section;
  ]

let summary trace =
  let counts = Hashtbl.create 16 in
  Trace.iter
    (fun (e : Trace.event) ->
      let n, total =
        match Hashtbl.find_opt counts e.kind with
        | Some (n, total) -> (n, total)
        | None -> (0, 0.)
      in
      Hashtbl.replace counts e.kind (n + 1, total +. e.dur))
    trace;
  let buffer = Buffer.create 512 in
  Buffer.add_string buffer
    (Printf.sprintf "trace: %d events, %d dropped\n" (Trace.length trace)
       (Trace.dropped trace));
  Buffer.add_string buffer
    (Printf.sprintf "  %-16s %8s %12s %12s\n" "kind" "count" "total(ms)"
       "mean(us)");
  List.iter
    (fun kind ->
      match Hashtbl.find_opt counts kind with
      | None -> ()
      | Some (n, total) ->
        Buffer.add_string buffer
          (Printf.sprintf "  %-16s %8d %12.3f %12.2f\n" (kind_to_string kind)
             n (total *. 1e3)
             (total *. 1e6 /. float_of_int n)))
    all_kinds;
  Buffer.contents buffer
