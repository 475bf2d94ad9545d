type run = {
  meta : (string * string) list;
  events : Trace.event list;
  dropped : int;
}

let parse_event json =
  let kind =
    match Json.member json "kind" with
    | Some (Json.Str s) -> (
      match Trace_export.kind_of_string s with
      | Some k -> k
      | None -> failwith (Printf.sprintf "unknown event kind %S" s))
    | _ -> failwith "event line is missing \"kind\""
  in
  {
    Trace.kind;
    t = Jsonl.num json "t" ~default:0.;
    dur = Jsonl.num json "dur" ~default:0.;
    gate_index = Jsonl.int json "gate" ~default:(-1);
    state_nodes = Jsonl.int json "state_nodes" ~default:(-1);
    matrix_nodes = Jsonl.int json "matrix_nodes" ~default:(-1);
    hits = Jsonl.int json "hits" ~default:0;
    misses = Jsonl.int json "misses" ~default:0;
    domain = Jsonl.int json "domain" ~default:0;
    detail = Jsonl.str json "detail" ~default:"";
  }

let parse_jsonl text =
  let doc =
    Jsonl.read ~schema:Trace_export.schema ~version:Trace_export.version
      ~record:parse_event text
  in
  {
    meta = doc.meta;
    events = doc.records;
    dropped = Jsonl.int doc.header "dropped" ~default:0;
  }

let trajectory run =
  let by_gate = Hashtbl.create 256 in
  List.iter
    (fun (e : Trace.event) ->
      if e.gate_index >= 0 && e.state_nodes >= 0 then
        Hashtbl.replace by_gate e.gate_index e.state_nodes)
    run.events;
  Hashtbl.fold (fun g n acc -> (g, n) :: acc) by_gate []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let peak_state_nodes run =
  List.fold_left
    (fun best (g, n) ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ -> Some (g, n))
    None (trajectory run)

type phase = {
  kind : Trace.kind;
  count : int;
  total_seconds : float;
  mean_seconds : float;
  max_seconds : float;
}

let kind_order = function
  | Trace.Gate_applied -> 0
  | Trace.Window_combined -> 1
  | Trace.Mat_vec -> 2
  | Trace.Mat_mat -> 3
  | Trace.Gc -> 4
  | Trace.Fallback -> 5
  | Trace.Renormalize -> 6
  | Trace.Checkpoint -> 7
  | Trace.Measure -> 8
  | Trace.Audit -> 9
  | Trace.Reorder -> 10
  | Trace.Pool_section -> 11

let phases_of_events events =
  let acc = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      let count, total, max_d =
        match Hashtbl.find_opt acc e.kind with
        | Some v -> v
        | None -> (0, 0., 0.)
      in
      Hashtbl.replace acc e.kind
        (count + 1, total +. e.dur, Float.max max_d e.dur))
    events;
  Hashtbl.fold
    (fun kind (count, total, max_d) out ->
      {
        kind;
        count;
        total_seconds = total;
        mean_seconds = total /. float_of_int count;
        max_seconds = max_d;
      }
      :: out)
    acc []
  |> List.sort (fun a b -> compare (kind_order a.kind) (kind_order b.kind))

let phases run = phases_of_events run.events

(* -- concurrency view -------------------------------------------------- *)

let lane_phases run =
  let domains =
    List.sort_uniq compare
      (List.map (fun (e : Trace.event) -> e.domain) run.events)
  in
  List.map
    (fun d ->
      ( d,
        phases_of_events
          (List.filter (fun (e : Trace.event) -> e.domain = d) run.events) ))
    domains

(* Amdahl view: wall time inside pool sections vs. the traced total.
   [None] when the trace has no [pool_section] spans (sequential run). *)
let serial_fraction run =
  let pool, span_end =
    List.fold_left
      (fun (pool, span_end) (e : Trace.event) ->
        ( (if e.kind = Trace.Pool_section then pool +. e.dur else pool),
          Float.max span_end (e.t +. e.dur) ))
      (0., 0.) run.events
  in
  if
    span_end <= 0.
    || not
         (List.exists
            (fun (e : Trace.event) -> e.kind = Trace.Pool_section)
            run.events)
  then None
  else Some (Float.max 0. (span_end -. pool) /. span_end)

(* terminal-friendly plot: 12 rows of '#' columns over <= 72 buckets *)
let plot_width = 72
let plot_height = 12

let render_plot points =
  match points with
  | [] -> "  (no node-count samples in trace)\n"
  | points ->
    let n = List.length points in
    let values = Array.of_list (List.map snd points) in
    let gates = Array.of_list (List.map fst points) in
    let width = min plot_width n in
    (* bucket consecutive samples; each column shows its bucket maximum so
       downsampling can never hide the peak *)
    let column = Array.make width 0 in
    Array.iteri
      (fun i v ->
        let c = i * width / n in
        if v > column.(c) then column.(c) <- v)
      values;
    let peak = Array.fold_left max 1 column in
    let buffer = Buffer.create 1024 in
    for row = plot_height downto 1 do
      let threshold =
        float_of_int peak *. float_of_int row /. float_of_int plot_height
      in
      let label =
        if row = plot_height then Printf.sprintf "%8d |" peak
        else if row = 1 then Printf.sprintf "%8d |" 0
        else "         |"
      in
      Buffer.add_string buffer label;
      for c = 0 to width - 1 do
        Buffer.add_char buffer
          (if float_of_int column.(c) >= threshold then '#' else ' ')
      done;
      Buffer.add_char buffer '\n'
    done;
    Buffer.add_string buffer ("         +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buffer
      (Printf.sprintf "          gate %d .. %d (%d samples)\n" gates.(0)
         gates.(n - 1) n);
    Buffer.contents buffer

let render run =
  let buffer = Buffer.create 2048 in
  Buffer.add_string buffer
    (Printf.sprintf "trace report (schema %s v%d)\n" Trace_export.schema
       Trace_export.version);
  if run.meta <> [] then begin
    Buffer.add_string buffer "meta:\n";
    List.iter
      (fun (k, v) ->
        Buffer.add_string buffer (Printf.sprintf "  %-12s %s\n" k v))
      run.meta
  end;
  Buffer.add_string buffer
    (Printf.sprintf "events: %d (%d dropped at capture time)\n"
       (List.length run.events) run.dropped);
  if run.events = [] then begin
    (* header-only trace: a breakdown of zero phases and an empty plot
       would only obscure the one fact that matters *)
    Buffer.add_string buffer
      "no events recorded — the run emitted nothing into this trace\n";
    Buffer.contents buffer
  end
  else begin
  let phase_table ps =
    Buffer.add_string buffer
      (Printf.sprintf "\n%-16s %8s %12s %12s %12s\n" "phase" "count"
         "total(ms)" "mean(us)" "max(us)");
    List.iter
      (fun p ->
        Buffer.add_string buffer
          (Printf.sprintf "%-16s %8d %12.3f %12.2f %12.2f\n"
             (Trace_export.kind_to_string p.kind)
             p.count
             (p.total_seconds *. 1e3)
             (p.mean_seconds *. 1e6)
             (p.max_seconds *. 1e6)))
      ps
  in
  let ps = phases run in
  if ps <> [] then phase_table ps;
  (* concurrency view: rendered only when the trace actually carries
     parallel data, so single-lane reports stay short *)
  let multi_lane =
    List.exists (fun (e : Trace.event) -> e.domain > 0) run.events
  in
  if multi_lane then begin
    List.iter
      (fun (d, lane_ps) ->
        Buffer.add_string buffer
          (Printf.sprintf "\nlane %d%s:" d
             (if d = 0 then " (caller)" else ""));
        phase_table lane_ps)
      (lane_phases run)
  end;
  (match serial_fraction run with
  | Some f ->
    Buffer.add_string buffer
      (Printf.sprintf
         "\nestimated serial fraction: %.1f%% (pool sections cover %.1f%% \
          of the traced span)\n"
         (f *. 100.)
         ((1. -. f) *. 100.))
  | None -> ());
  let points = trajectory run in
  Buffer.add_string buffer "\nstate-DD node-count trajectory:\n";
  Buffer.add_string buffer (render_plot points);
  (match peak_state_nodes run with
  | Some (gate, nodes) ->
    Buffer.add_string buffer
      (Printf.sprintf "peak state nodes: %d at gate %d\n" nodes gate)
  | None -> ());
  Buffer.contents buffer
  end
