type strategy = Mat_vec | Mat_mat of int | Fallback

type entry = {
  index : int;
  strategy : strategy;
  gate_start : int;
  gate_end : int;
  gates : int;
  build_seconds : float;
  apply_seconds : float;
  peak_matrix_nodes : int;
  state_nodes_before : int;
  state_nodes_after : int;
  hits : int;
  misses : int;
  heap_live_words : int;
  table_bytes : int;
  detail : string;
}

(* -- sink ------------------------------------------------------------- *)

type t = {
  mutable on : bool;
  max_entries : int;
  stretch : int;
  mutable count : int;  (* retained commits *)
  mutable drop_count : int;  (* commits past [max_entries] *)
  mutable items : entry list;  (* reversed *)
  mutable total_build : float;  (* over every commit, never reset *)
  mutable total_apply : float;
  (* the open accumulator entry *)
  mutable cur_open : bool;
  mutable cur_opened : float;  (* wall clock at [open_entry] *)
  mutable cur_seq : bool;
  mutable cur_fallback : bool;
  mutable cur_k : int;  (* explicit window k; -1 = use [cur_gates] *)
  mutable cur_detail : string;
  mutable cur_gate_start : int;
  mutable cur_gates : int;
  mutable cur_build : float;
  mutable cur_apply : float;
  mutable cur_peak_matrix : int;  (* -1 when no matrix DD materialised *)
  mutable cur_state_before : int;
  mutable cur_hits : int;
  mutable cur_misses : int;
}

let make ~on ~max_entries ~stretch =
  {
    on;
    max_entries;
    stretch;
    count = 0;
    drop_count = 0;
    items = [];
    total_build = 0.;
    total_apply = 0.;
    cur_open = false;
    cur_opened = 0.;
    cur_seq = false;
    cur_fallback = false;
    cur_k = -1;
    cur_detail = "";
    cur_gate_start = 0;
    cur_gates = 0;
    cur_build = 0.;
    cur_apply = 0.;
    cur_peak_matrix = -1;
    cur_state_before = 0;
    cur_hits = 0;
    cur_misses = 0;
  }

let null = make ~on:false ~max_entries:0 ~stretch:max_int

let create ?(max_entries = 65536) ?(stretch = 256) () =
  if stretch < 1 then invalid_arg "Ledger.create: stretch must be >= 1";
  make ~on:true ~max_entries ~stretch

(* the disabled path must not allocate: one load, one branch *)
let is_on t = t.on
let active t = t.on && t.cur_open

let open_entry t ~seq ~gate ~state_nodes =
  if t.on then begin
    if t.cur_open then invalid_arg "Ledger.open_entry: entry already open";
    t.cur_open <- true;
    t.cur_opened <- Clock.now ();
    t.cur_seq <- seq;
    t.cur_fallback <- false;
    t.cur_k <- -1;
    t.cur_detail <- "";
    t.cur_gate_start <- gate;
    t.cur_gates <- 0;
    t.cur_build <- 0.;
    t.cur_apply <- 0.;
    t.cur_peak_matrix <- -1;
    t.cur_state_before <- state_nodes;
    t.cur_hits <- 0;
    t.cur_misses <- 0
  end

let add_gates t n = if t.on && t.cur_open then t.cur_gates <- t.cur_gates + n
let add_build t dt = if t.on && t.cur_open then t.cur_build <- t.cur_build +. dt
let add_apply t dt = if t.on && t.cur_open then t.cur_apply <- t.cur_apply +. dt

let add_traffic t ~hits ~misses =
  if t.on && t.cur_open then begin
    t.cur_hits <- t.cur_hits + hits;
    t.cur_misses <- t.cur_misses + misses
  end

let note_matrix t nodes =
  if t.on && t.cur_open && nodes > t.cur_peak_matrix then
    t.cur_peak_matrix <- nodes

let degrade t ~detail =
  if t.on && t.cur_open then begin
    t.cur_fallback <- true;
    t.cur_detail <- detail
  end

let note_detail t detail = if t.on && t.cur_open then t.cur_detail <- detail
let set_window_k t k = if t.on && t.cur_open then t.cur_k <- k

let rotate_due t =
  t.on && t.cur_open && t.cur_seq && t.cur_gates >= t.stretch

let commit t ~gate_end ~state_nodes ~heap_words ~table_bytes =
  if t.on && t.cur_open then begin
    (* the kernel spans (gate-DD builds, matrix products, applications)
       never cover the whole window: dispatch, guard checks and window
       bookkeeping run between them.  Fold that slack into the bucket
       that owns the window's machinery — build for combination windows,
       apply for sequential stretches — so summed build+apply tracks the
       wall clock instead of undercounting it. *)
    let span = Clock.now () -. t.cur_opened in
    let slack = Float.max 0. (span -. t.cur_build -. t.cur_apply) in
    if t.cur_seq then t.cur_apply <- t.cur_apply +. slack
    else t.cur_build <- t.cur_build +. slack;
    let strategy =
      if t.cur_fallback then Fallback
      else if t.cur_seq then Mat_vec
      else Mat_mat (if t.cur_k >= 0 then t.cur_k else t.cur_gates)
    in
    let entry =
      {
        index = t.count + t.drop_count;
        strategy;
        gate_start = t.cur_gate_start;
        gate_end;
        gates = t.cur_gates;
        build_seconds = t.cur_build;
        apply_seconds = t.cur_apply;
        peak_matrix_nodes = t.cur_peak_matrix;
        state_nodes_before = t.cur_state_before;
        state_nodes_after = state_nodes;
        hits = t.cur_hits;
        misses = t.cur_misses;
        heap_live_words = heap_words;
        table_bytes;
        detail = t.cur_detail;
      }
    in
    t.total_build <- t.total_build +. t.cur_build;
    t.total_apply <- t.total_apply +. t.cur_apply;
    if t.count >= t.max_entries then t.drop_count <- t.drop_count + 1
    else begin
      t.items <- entry :: t.items;
      t.count <- t.count + 1
    end;
    t.cur_open <- false
  end

let length t = t.count
let dropped t = t.drop_count
let entries t = List.rev t.items
let total_build_seconds t = t.total_build
let total_apply_seconds t = t.total_apply

(* -- JSONL sidecar ---------------------------------------------------- *)

let schema = "ddsim-ledger"
let version = 1

type run = {
  run_meta : (string * string) list;
  run_dropped : int;
  run_entries : entry list;
}

let strategy_name = function
  | Mat_vec -> "mat_vec"
  | Mat_mat _ -> "mat_mat"
  | Fallback -> "fallback"

let entry_to_json e =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer
    (Printf.sprintf "{\"i\":%d,\"strategy\":\"%s\"" e.index
       (strategy_name e.strategy));
  (match e.strategy with
  | Mat_mat k -> Buffer.add_string buffer (Printf.sprintf ",\"k\":%d" k)
  | Mat_vec | Fallback -> ());
  Buffer.add_string buffer
    (Printf.sprintf
       ",\"gates\":%d,\"gate_start\":%d,\"gate_end\":%d,\"build_s\":%.9g,\"apply_s\":%.9g,\"peak_matrix_nodes\":%d,\"state_nodes_before\":%d,\"state_nodes_after\":%d,\"hits\":%d,\"misses\":%d,\"heap_live_words\":%d,\"table_bytes\":%d"
       e.gates e.gate_start e.gate_end e.build_seconds e.apply_seconds
       e.peak_matrix_nodes e.state_nodes_before e.state_nodes_after e.hits
       e.misses e.heap_live_words e.table_bytes);
  if e.detail <> "" then
    Buffer.add_string buffer
      (Printf.sprintf ",\"detail\":\"%s\"" (Json.escape e.detail));
  Buffer.add_char buffer '}';
  Buffer.contents buffer

let jsonl ?(meta = []) t =
  Jsonl.write ~schema ~version
    ~counts:[ ("entries", t.count); ("dropped", t.drop_count) ]
    ~meta
    (Seq.map entry_to_json (List.to_seq (entries t)))

let parse_entry json =
  let gates = Jsonl.int json "gates" ~default:0 in
  let strategy =
    match Jsonl.str json "strategy" ~default:"" with
    | "mat_vec" -> Mat_vec
    | "mat_mat" -> Mat_mat (Jsonl.int json "k" ~default:gates)
    | "fallback" -> Fallback
    | s -> failwith (Printf.sprintf "unknown strategy %S" s)
  in
  {
    index = Jsonl.int json "i" ~default:(-1);
    strategy;
    gate_start = Jsonl.int json "gate_start" ~default:0;
    gate_end = Jsonl.int json "gate_end" ~default:0;
    gates;
    build_seconds = Jsonl.num json "build_s" ~default:0.;
    apply_seconds = Jsonl.num json "apply_s" ~default:0.;
    peak_matrix_nodes = Jsonl.int json "peak_matrix_nodes" ~default:(-1);
    state_nodes_before = Jsonl.int json "state_nodes_before" ~default:0;
    state_nodes_after = Jsonl.int json "state_nodes_after" ~default:0;
    hits = Jsonl.int json "hits" ~default:0;
    misses = Jsonl.int json "misses" ~default:0;
    heap_live_words = Jsonl.int json "heap_live_words" ~default:0;
    table_bytes = Jsonl.int json "table_bytes" ~default:0;
    detail = Jsonl.str json "detail" ~default:"";
  }

let parse_jsonl text =
  let doc = Jsonl.read ~schema ~version ~record:parse_entry text in
  {
    run_meta = doc.meta;
    run_dropped = Jsonl.int doc.header "dropped" ~default:0;
    run_entries = doc.records;
  }

(* -- aggregation ------------------------------------------------------- *)

type totals = {
  mv_entries : int;
  mv_gates : int;
  mv_build : float;
  mv_apply : float;
  mm_entries : int;
  mm_gates : int;
  mm_build : float;
  mm_apply : float;
  fb_entries : int;
  fb_gates : int;
  fb_build : float;
  fb_apply : float;
  peak_matrix : int;
  peak_heap_words : int;
  peak_table_bytes : int;
}

let totals entries =
  List.fold_left
    (fun acc e ->
      let acc =
        {
          acc with
          peak_matrix = max acc.peak_matrix e.peak_matrix_nodes;
          peak_heap_words = max acc.peak_heap_words e.heap_live_words;
          peak_table_bytes = max acc.peak_table_bytes e.table_bytes;
        }
      in
      match e.strategy with
      | Mat_vec ->
        {
          acc with
          mv_entries = acc.mv_entries + 1;
          mv_gates = acc.mv_gates + e.gates;
          mv_build = acc.mv_build +. e.build_seconds;
          mv_apply = acc.mv_apply +. e.apply_seconds;
        }
      | Mat_mat _ ->
        {
          acc with
          mm_entries = acc.mm_entries + 1;
          mm_gates = acc.mm_gates + e.gates;
          mm_build = acc.mm_build +. e.build_seconds;
          mm_apply = acc.mm_apply +. e.apply_seconds;
        }
      | Fallback ->
        {
          acc with
          fb_entries = acc.fb_entries + 1;
          fb_gates = acc.fb_gates + e.gates;
          fb_build = acc.fb_build +. e.build_seconds;
          fb_apply = acc.fb_apply +. e.apply_seconds;
        })
    {
      mv_entries = 0;
      mv_gates = 0;
      mv_build = 0.;
      mv_apply = 0.;
      mm_entries = 0;
      mm_gates = 0;
      mm_build = 0.;
      mm_apply = 0.;
      fb_entries = 0;
      fb_gates = 0;
      fb_build = 0.;
      fb_apply = 0.;
      peak_matrix = -1;
      peak_heap_words = 0;
      peak_table_bytes = 0;
    }
    entries

(* Per-window-size aggregate over [Mat_mat] entries: k -> (windows,
   gates, build+apply seconds), sorted by k ascending. *)
let by_k entries =
  let table = Hashtbl.create 8 in
  List.iter
    (fun e ->
      match e.strategy with
      | Mat_mat k ->
        let windows, gates, seconds =
          match Hashtbl.find_opt table k with
          | Some acc -> acc
          | None -> (0, 0, 0.)
        in
        Hashtbl.replace table k
          ( windows + 1,
            gates + e.gates,
            seconds +. e.build_seconds +. e.apply_seconds )
      | Mat_vec | Fallback -> ())
    entries;
  Hashtbl.fold (fun k acc rows -> (k, acc) :: rows) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let mat_vec_per_gate entries =
  let t = totals entries in
  if t.mv_gates > 0 then Some ((t.mv_build +. t.mv_apply) /. float_of_int t.mv_gates)
  else None

let break_even entries =
  match mat_vec_per_gate entries with
  | None -> None
  | Some baseline ->
    List.fold_left
      (fun best (k, (_, gates, seconds)) ->
        if gates > 0 && seconds /. float_of_int gates <= baseline then
          match best with Some b when b <= k -> best | _ -> Some k
        else best)
      None (by_k entries)

let mib bytes = float_of_int bytes /. (1024. *. 1024.)

let explain ?(top = 5) run =
  let buffer = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "ledger (schema %s v%d)" schema version;
  if run.run_meta <> [] then
    line "meta: %s"
      (String.concat " "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) run.run_meta));
  let n = List.length run.run_entries in
  line "entries: %d%s" n
    (if run.run_dropped > 0 then
       Printf.sprintf " (%d dropped past retention)" run.run_dropped
     else "");
  let t = totals run.run_entries in
  line "";
  line "strategy totals (build = gate-DD construction + matrix products,";
  line "                 apply = matrix-vector application):";
  line "  mat-vec : %4d entries  %6d gates  build %8.4fs  apply %8.4fs  total %8.4fs"
    t.mv_entries t.mv_gates t.mv_build t.mv_apply (t.mv_build +. t.mv_apply);
  line "  mat-mat : %4d windows  %6d gates  build %8.4fs  apply %8.4fs  total %8.4fs"
    t.mm_entries t.mm_gates t.mm_build t.mm_apply (t.mm_build +. t.mm_apply);
  line "  fallback: %4d windows  %6d gates  build %8.4fs  apply %8.4fs  total %8.4fs"
    t.fb_entries t.fb_gates t.fb_build t.fb_apply (t.fb_build +. t.fb_apply);
  let baseline = mat_vec_per_gate run.run_entries in
  let groups = by_k run.run_entries in
  if groups <> [] then begin
    line "";
    line "amortization per window size:";
    List.iter
      (fun (k, (windows, gates, seconds)) ->
        let per_gate =
          if gates > 0 then seconds /. float_of_int gates else 0.
        in
        let vs =
          match baseline with
          | Some b when b > 0. ->
            Printf.sprintf "  (%.2fx mat-vec per-gate)" (per_gate /. b)
          | _ -> ""
        in
        line "  k=%-3d %4d windows  %6d gates  %.6f s/gate%s" k windows gates
          per_gate vs)
      groups
  end;
  (match baseline with
  | Some b -> line "mat-vec per-gate: %.6f s" b
  | None -> line "mat-vec per-gate: n/a (no sequential stretch in this run)");
  (match break_even run.run_entries with
  | Some k -> line "break-even k observed: %d (smallest window size beating mat-vec per-gate)" k
  | None -> line "break-even k observed: none");
  let expensive =
    List.filter
      (fun e -> e.build_seconds +. e.apply_seconds > 0. || e.gates > 0)
      run.run_entries
    |> List.sort (fun a b ->
           compare
             (b.build_seconds +. b.apply_seconds)
             (a.build_seconds +. a.apply_seconds))
  in
  if expensive <> [] && top > 0 then begin
    line "";
    line "top %d most expensive windows:" (min top (List.length expensive));
    List.iteri
      (fun i e ->
        if i < top then begin
          let strategy =
            match e.strategy with
            | Mat_vec -> "mat-vec"
            | Mat_mat k -> Printf.sprintf "mat-mat k=%d" k
            | Fallback ->
              if e.detail <> "" then
                Printf.sprintf "fallback (%s)" e.detail
              else "fallback"
          in
          line
            "  %d. gates [%d,%d) %-16s build %8.4fs apply %8.4fs  matrix peak %s  state %d -> %d"
            (i + 1) e.gate_start e.gate_end strategy e.build_seconds
            e.apply_seconds
            (if e.peak_matrix_nodes >= 0 then
               Printf.sprintf "%d nodes" e.peak_matrix_nodes
             else "-")
            e.state_nodes_before e.state_nodes_after
        end)
      expensive
  end;
  if t.peak_heap_words > 0 || t.peak_table_bytes > 0 then begin
    line "";
    line "peak memory: heap %d live words, DD tables ~%.1f MiB%s"
      t.peak_heap_words
      (mib t.peak_table_bytes)
      (if t.peak_matrix >= 0 then
         Printf.sprintf " (largest matrix DD %d nodes)" t.peak_matrix
       else "")
  end;
  (match List.assoc_opt "wall_seconds" run.run_meta with
  | Some w -> (
    match float_of_string_opt w with
    | Some wall when wall > 0. ->
      let attributed =
        t.mv_build +. t.mv_apply +. t.mm_build +. t.mm_apply +. t.fb_build
        +. t.fb_apply
      in
      line "ledger covers %.1f%% of wall clock (%.4fs of %.4fs)"
        (100. *. attributed /. wall)
        attributed wall
    | _ -> ())
  | None -> ());
  Buffer.contents buffer
