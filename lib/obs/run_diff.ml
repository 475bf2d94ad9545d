type divergence = {
  gate : int;
  nodes_a : int;
  nodes_b : int;
  detail : string;
}

(* -- alignment ------------------------------------------------------- *)

let first_divergence trajectory_a trajectory_b =
  let by_gate points =
    let table = Hashtbl.create 256 in
    List.iter (fun (g, n) -> Hashtbl.replace table g n) points;
    table
  in
  let table_b = by_gate trajectory_b in
  let rec scan = function
    | [] -> None
    | (gate, nodes_a) :: rest -> (
      match Hashtbl.find_opt table_b gate with
      | Some nodes_b when nodes_b <> nodes_a ->
        Some { gate; nodes_a; nodes_b; detail = "" }
      | _ -> scan rest)
  in
  scan trajectory_a

(* -- overlay plot ---------------------------------------------------- *)

let plot_width = 72
let plot_height = 12

let overlay_plot ~a ~b =
  if a = [] && b = [] then "  (no node-count samples in either run)\n"
  else begin
    let gates = List.map fst a @ List.map fst b in
    let g0 = List.fold_left min max_int gates in
    let g1 = List.fold_left max min_int gates in
    let span = max 1 (g1 - g0 + 1) in
    let width = min plot_width span in
    let columns points =
      let column = Array.make width 0 in
      List.iter
        (fun (g, v) ->
          let c = (g - g0) * width / span in
          if v > column.(c) then column.(c) <- v)
        points;
      column
    in
    let column_a = columns a in
    let column_b = columns b in
    let peak =
      max 1 (max (Array.fold_left max 0 column_a) (Array.fold_left max 0 column_b))
    in
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
        let hit_a = float_of_int column_a.(c) >= threshold in
        let hit_b = float_of_int column_b.(c) >= threshold in
        Buffer.add_char buffer
          (match (hit_a, hit_b) with
          | true, true -> '*'
          | true, false -> 'a'
          | false, true -> 'b'
          | false, false -> ' ')
      done;
      Buffer.add_char buffer '\n'
    done;
    Buffer.add_string buffer ("         +" ^ String.make width '-' ^ "\n");
    Buffer.add_string buffer
      (Printf.sprintf
         "          gate %d .. %d   (a only, b only, * both reach)\n" g0 g1);
    Buffer.contents buffer
  end

(* -- shared rendering helpers ---------------------------------------- *)

let peak_of trajectory =
  List.fold_left
    (fun best (g, n) ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ -> Some (g, n))
    None trajectory

let delta_percent base value =
  if base = 0. then if value = 0. then 0. else infinity
  else (value -. base) /. base *. 100.

let add_heading buffer label_a label_b =
  Buffer.add_string buffer
    (Printf.sprintf "run diff: a = %s, b = %s\n" label_a label_b)

let add_divergence buffer = function
  | None ->
    Buffer.add_string buffer
      "first divergence: none — node trajectories agree at every aligned \
       gate\n"
  | Some d ->
    Buffer.add_string buffer
      (Printf.sprintf
         "first divergence: gate %d%s — %d nodes (a) vs %d nodes (b)\n"
         d.gate
         (if d.detail = "" then "" else Printf.sprintf " (%s)" d.detail)
         d.nodes_a d.nodes_b)

let add_meta buffer ~meta_a ~meta_b =
  List.iter
    (fun (label, meta) ->
      if meta <> [] then
        Buffer.add_string buffer
          (Printf.sprintf "meta (%s): %s\n" label
             (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) meta))))
    [ ("a", meta_a); ("b", meta_b) ]

let add_peaks buffer trajectory_a trajectory_b =
  match (peak_of trajectory_a, peak_of trajectory_b) with
  | Some (ga, na), Some (gb, nb) ->
    Buffer.add_string buffer
      (Printf.sprintf
         "peak state nodes: a = %d at gate %d, b = %d at gate %d (%+.1f%%)\n"
         na ga nb gb
         (delta_percent (float_of_int na) (float_of_int nb)))
  | _ -> ()

(* -- trace diff ------------------------------------------------------ *)

let gate_name_at (run : Trace_report.run) gate =
  List.fold_left
    (fun acc (e : Trace.event) ->
      if e.kind = Trace.Gate_applied && e.gate_index = gate && e.detail <> ""
      then e.detail
      else acc)
    "" run.events

let add_phase_deltas buffer (phases_a : Trace_report.phase list)
    (phases_b : Trace_report.phase list) =
  let find phases kind =
    List.find_opt (fun (p : Trace_report.phase) -> p.kind = kind) phases
  in
  let kinds =
    List.sort_uniq compare
      (List.map (fun (p : Trace_report.phase) -> p.kind) phases_a
      @ List.map (fun (p : Trace_report.phase) -> p.kind) phases_b)
  in
  if kinds <> [] then begin
    Buffer.add_string buffer
      (Printf.sprintf "\n%-16s %8s %8s %12s %12s %9s\n" "phase" "count(a)"
         "count(b)" "total(a,ms)" "total(b,ms)" "dt");
    List.iter
      (fun kind ->
        let count p =
          match p with Some (q : Trace_report.phase) -> q.count | None -> 0
        in
        let total p =
          match p with
          | Some (q : Trace_report.phase) -> q.total_seconds
          | None -> 0.
        in
        let pa = find phases_a kind and pb = find phases_b kind in
        Buffer.add_string buffer
          (Printf.sprintf "%-16s %8d %8d %12.3f %12.3f %8.1f%%\n"
             (Trace_export.kind_to_string kind)
             (count pa) (count pb)
             (total pa *. 1e3)
             (total pb *. 1e3)
             (delta_percent (total pa) (total pb))))
      kinds
  end

let hit_rates (run : Trace_report.run) =
  let table = Hashtbl.create 4 in
  List.iter
    (fun (e : Trace.event) ->
      match e.kind with
      | Trace.Mat_vec | Trace.Mat_mat ->
        let hits, misses =
          match Hashtbl.find_opt table e.kind with
          | Some v -> v
          | None -> (0, 0)
        in
        Hashtbl.replace table e.kind (hits + e.hits, misses + e.misses)
      | _ -> ())
    run.events;
  table

let add_hit_rate_deltas buffer run_a run_b =
  let rates_a = hit_rates run_a and rates_b = hit_rates run_b in
  let describe table kind =
    match Hashtbl.find_opt table kind with
    | Some (hits, misses) when hits + misses > 0 ->
      Some (float_of_int hits /. float_of_int (hits + misses))
    | _ -> None
  in
  let line kind =
    match (describe rates_a kind, describe rates_b kind) with
    | None, None -> ()
    | rate_a, rate_b ->
      let show = function
        | Some r -> Printf.sprintf "%6.1f%%" (r *. 100.)
        | None -> "      -"
      in
      let delta =
        match (rate_a, rate_b) with
        | Some ra, Some rb -> Printf.sprintf "%+6.1fpp" ((rb -. ra) *. 100.)
        | _ -> "       -"
      in
      Buffer.add_string buffer
        (Printf.sprintf "  %-10s %s (a)  %s (b)  %s\n"
           (Trace_export.kind_to_string kind)
           (show rate_a) (show rate_b) delta)
  in
  Buffer.add_string buffer "\ncompute-table hit rates:\n";
  line Trace.Mat_vec;
  line Trace.Mat_mat

let render_traces ?(label_a = "A") ?(label_b = "B") (run_a : Trace_report.run)
    (run_b : Trace_report.run) =
  let buffer = Buffer.create 4096 in
  add_heading buffer label_a label_b;
  add_meta buffer ~meta_a:run_a.meta ~meta_b:run_b.meta;
  let trajectory_a = Trace_report.trajectory run_a in
  let trajectory_b = Trace_report.trajectory run_b in
  (match first_divergence trajectory_a trajectory_b with
  | None -> add_divergence buffer None
  | Some d ->
    let detail = gate_name_at run_a d.gate in
    add_divergence buffer (Some { d with detail }));
  add_peaks buffer trajectory_a trajectory_b;
  Buffer.add_string buffer "\nnode-trajectory overlay:\n";
  Buffer.add_string buffer (overlay_plot ~a:trajectory_a ~b:trajectory_b);
  add_phase_deltas buffer
    (Trace_report.phases run_a)
    (Trace_report.phases run_b);
  add_hit_rate_deltas buffer run_a run_b;
  Buffer.contents buffer

(* -- profile diff ---------------------------------------------------- *)

let profile_trajectory (run : Dd_profile.run) =
  List.map
    (fun (s : Dd_profile.snapshot) -> (s.gate_index, s.nodes))
    run.run_snapshots
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let snapshot_at (run : Dd_profile.run) gate =
  List.find_opt
    (fun (s : Dd_profile.snapshot) -> s.gate_index = gate)
    run.run_snapshots

let add_level_comparison buffer (snapshot_a : Dd_profile.snapshot)
    (snapshot_b : Dd_profile.snapshot) =
  Buffer.add_string buffer
    (Printf.sprintf "\nper-level breakdown at gate %d:\n"
       snapshot_a.gate_index);
  Buffer.add_string buffer
    (Printf.sprintf "%8s %10s %10s %10s %10s\n" "level" "nodes(a)"
       "nodes(b)" "edges(a)" "edges(b)");
  let find (s : Dd_profile.snapshot) level =
    List.find_opt (fun (l : Dd_profile.level) -> l.level = level) s.levels
  in
  let levels =
    List.sort_uniq
      (fun a b -> compare b a)
      (List.map (fun (l : Dd_profile.level) -> l.level) snapshot_a.levels
      @ List.map (fun (l : Dd_profile.level) -> l.level) snapshot_b.levels)
  in
  List.iter
    (fun level ->
      let nodes s =
        match find s level with
        | Some (l : Dd_profile.level) -> l.nodes
        | None -> 0
      in
      let edges s =
        match find s level with
        | Some (l : Dd_profile.level) -> l.edges
        | None -> 0
      in
      let marker =
        if nodes snapshot_a <> nodes snapshot_b then "  <-- diverges"
        else ""
      in
      Buffer.add_string buffer
        (Printf.sprintf "%8d %10d %10d %10d %10d%s\n" level
           (nodes snapshot_a) (nodes snapshot_b) (edges snapshot_a)
           (edges snapshot_b) marker))
    levels;
  Buffer.add_string buffer
    (Printf.sprintf
       "sharing: %.3f (a) vs %.3f (b); identity fraction: %.3f (a) vs %.3f \
        (b)\n"
       snapshot_a.sharing snapshot_b.sharing snapshot_a.identity_fraction
       snapshot_b.identity_fraction)

(* -- ledger diff ----------------------------------------------------- *)

let add_strategy_deltas buffer (totals_a : Ledger.totals)
    (totals_b : Ledger.totals) =
  Buffer.add_string buffer
    (Printf.sprintf "\n%-9s %9s %9s %12s %12s %9s\n" "strategy" "gates(a)"
       "gates(b)" "total(a,ms)" "total(b,ms)" "dt");
  let line name gates_a gates_b seconds_a seconds_b =
    Buffer.add_string buffer
      (Printf.sprintf "%-9s %9d %9d %12.3f %12.3f %8.1f%%\n" name gates_a
         gates_b (seconds_a *. 1e3) (seconds_b *. 1e3)
         (delta_percent seconds_a seconds_b))
  in
  line "mat-vec" totals_a.Ledger.mv_gates totals_b.Ledger.mv_gates
    (totals_a.Ledger.mv_build +. totals_a.Ledger.mv_apply)
    (totals_b.Ledger.mv_build +. totals_b.Ledger.mv_apply);
  line "mat-mat" totals_a.Ledger.mm_gates totals_b.Ledger.mm_gates
    (totals_a.Ledger.mm_build +. totals_a.Ledger.mm_apply)
    (totals_b.Ledger.mm_build +. totals_b.Ledger.mm_apply);
  line "fallback" totals_a.Ledger.fb_gates totals_b.Ledger.fb_gates
    (totals_a.Ledger.fb_build +. totals_a.Ledger.fb_apply)
    (totals_b.Ledger.fb_build +. totals_b.Ledger.fb_apply)

let render_ledgers ?(label_a = "A") ?(label_b = "B") (run_a : Ledger.run)
    (run_b : Ledger.run) =
  let buffer = Buffer.create 4096 in
  add_heading buffer label_a label_b;
  add_meta buffer ~meta_a:run_a.Ledger.run_meta ~meta_b:run_b.Ledger.run_meta;
  Buffer.add_string buffer
    (Printf.sprintf "entries: %d (a) vs %d (b)\n"
       (List.length run_a.Ledger.run_entries)
       (List.length run_b.Ledger.run_entries));
  let totals_a = Ledger.totals run_a.Ledger.run_entries in
  let totals_b = Ledger.totals run_b.Ledger.run_entries in
  add_strategy_deltas buffer totals_a totals_b;
  let show_break_even label run =
    Buffer.add_string buffer
      (Printf.sprintf "break-even k (%s): %s\n" label
         (match Ledger.break_even run.Ledger.run_entries with
         | Some k -> string_of_int k
         | None -> "none"))
  in
  Buffer.add_string buffer "\n";
  show_break_even "a" run_a;
  show_break_even "b" run_b;
  (if totals_a.Ledger.peak_matrix >= 0 || totals_b.Ledger.peak_matrix >= 0
   then
     Buffer.add_string buffer
       (Printf.sprintf "peak matrix nodes: %d (a) vs %d (b)\n"
          totals_a.Ledger.peak_matrix totals_b.Ledger.peak_matrix));
  if totals_a.Ledger.peak_heap_words > 0 || totals_b.Ledger.peak_heap_words > 0
  then
    Buffer.add_string buffer
      (Printf.sprintf
         "peak memory: heap %d vs %d live words, tables %d vs %d bytes\n"
         totals_a.Ledger.peak_heap_words totals_b.Ledger.peak_heap_words
         totals_a.Ledger.peak_table_bytes totals_b.Ledger.peak_table_bytes);
  Buffer.contents buffer

let render_profiles ?(label_a = "A") ?(label_b = "B") (run_a : Dd_profile.run)
    (run_b : Dd_profile.run) =
  let buffer = Buffer.create 4096 in
  add_heading buffer label_a label_b;
  let trajectory_a = profile_trajectory run_a in
  let trajectory_b = profile_trajectory run_b in
  let divergence = first_divergence trajectory_a trajectory_b in
  add_divergence buffer divergence;
  add_peaks buffer trajectory_a trajectory_b;
  Buffer.add_string buffer "\nnode-trajectory overlay:\n";
  Buffer.add_string buffer (overlay_plot ~a:trajectory_a ~b:trajectory_b);
  (match divergence with
  | Some d -> (
    match (snapshot_at run_a d.gate, snapshot_at run_b d.gate) with
    | Some snapshot_a, Some snapshot_b ->
      add_level_comparison buffer snapshot_a snapshot_b
    | _ -> ())
  | None -> (
    (* no divergence: still compare the final structural snapshots *)
    match
      (List.rev run_a.run_snapshots, List.rev run_b.run_snapshots)
    with
    | last_a :: _, last_b :: _ -> add_level_comparison buffer last_a last_b
    | _ -> ()));
  Buffer.contents buffer
