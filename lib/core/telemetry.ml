type value = Count of int | Value of float
type snapshot = (string * value) list

let snapshot engine =
  let stats = Engine.stats engine in
  let ctx = Engine.context engine in
  let count name n = (name, Count n) in
  let sim =
    List.map
      (function
        | Sim_stats.Int (name, get, _) -> count ("sim." ^ name) (get stats)
        | Sim_stats.Float (name, get, _) -> ("sim." ^ name, Value (get stats)))
      Sim_stats.fields
  in
  let tables =
    List.concat_map
      (fun (s : Dd.Compute_table.stats) ->
        let field suffix = Printf.sprintf "table.%s.%s" s.table suffix in
        [
          count (field "hits") s.hits;
          count (field "misses") s.misses;
          count (field "evictions") s.evictions;
          count (field "entries") s.entries;
        ])
      (Dd.Context.table_stats ctx)
  in
  let q = Gc.quick_stat () in
  let gc = Dd.Context.gc_stats ctx in
  sim @ tables
  @ [
      count "nodes.live_vector" (Dd.Context.live_v_nodes ctx);
      count "nodes.live_matrix" (Dd.Context.live_m_nodes ctx);
      count "nodes.created_vector" (Dd.Context.v_unique_size ctx);
      count "nodes.created_matrix" (Dd.Context.m_unique_size ctx);
      (* rebuild-stable short-circuits of the structured-apply kernel:
         cache-equivalent wins that never probe the apply table, so the
         table.apply hit counters alone undercount its reuse *)
      count "table.apply.ident_skips" (Dd.Context.apply_skips ctx);
      (* memory gauges: OCaml heap occupancy plus the DD package's
         estimated table residency (entry counts x documented per-entry
         layout costs) *)
      count "mem.heap_live_words" q.Gc.live_words;
      count "mem.heap_top_words" q.Gc.top_heap_words;
      count "mem.unique_table_bytes" (Dd.Context.unique_table_bytes ctx);
      count "mem.compute_table_bytes" (Dd.Context.compute_table_bytes ctx);
      count "mem.residency_bytes" (Dd.Context.residency_bytes ctx);
      count "gc.collections" gc.Dd.Context.collections;
      ("gc.pause_seconds", Value gc.Dd.Context.pause_total);
      count "gc.reclaimed_vector_nodes" gc.Dd.Context.v_reclaimed_total;
      count "gc.reclaimed_matrix_nodes" gc.Dd.Context.m_reclaimed_total;
      count "gc.entries_invalidated" gc.Dd.Context.entries_invalidated;
    ]
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json (s : snapshot) =
  "{"
  ^ String.concat ","
      (List.map
         (fun (name, value) ->
           Printf.sprintf "\"%s\":%s" (Obs.Json.escape name)
             (match value with
             | Count n -> string_of_int n
             | Value v -> Printf.sprintf "%.9g" v))
         s)
  ^ "}"

let pp fmt (s : snapshot) =
  List.iter
    (fun (name, value) ->
      match value with
      | Count n -> Format.fprintf fmt "%-36s %d@\n" name n
      | Value v -> Format.fprintf fmt "%-36s %g@\n" name v)
    s
