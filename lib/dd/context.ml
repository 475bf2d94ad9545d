open Dd_complex

type gc_stats = {
  mutable collections : int;
  mutable pause_total : float;
  mutable last_pause : float;
  mutable v_reclaimed_total : int;
  mutable m_reclaimed_total : int;
  mutable entries_invalidated : int;
}

type t = {
  ctable : Ctable.t;
  v_unique : Hashcons.V.t;
  m_unique : Hashcons.M.t;
  add_v : Types.vedge Compute_table.t;
  add_m : Types.medge Compute_table.t;
  mul_mv : Types.vedge Compute_table.t;
  mul_mm : Types.medge Compute_table.t;
  apply_v : Types.vedge Compute_table.t;
  dot : Cnum.t Compute_table.t;
  adjoint : Types.medge Compute_table.t;
  norm : float Compute_table.t;
  max_mag : float Compute_table.t;
  identity_cache : (int, Types.medge) Hashtbl.t;
  (* Collision-free small-integer keys for the structured-apply compute
     table: a gate kind is the quadruple of interned 2x2 entry tags, a
     layout is (target, sorted controls).  Interning instead of bit-packing
     keeps the compute-table key exact for any qubit count — equal ids
     imply equal gates, so a stale entry can never answer for a different
     gate.  Ids are dense and never reused. *)
  apply_kind_ids : (int * int * int * int, int) Hashtbl.t;
  apply_layout_ids : (int * (int * bool) list, int) Hashtbl.t;
  (* node id -> "a hash-cons rebuild of this subtree is bitwise the
     identity"; intrinsic to the immutable node, computed lazily by the
     structured-apply kernel (see apply.ml) *)
  apply_stable : (int, bool) Hashtbl.t;
  gc : gc_stats;
  (* structured-apply rebuild-stable short-circuits: cache-equivalent wins
     that never probe apply_v, counted separately so bench rows can show
     why a cache-friendly circuit reports few probe hits (see apply.ml) *)
  mutable apply_skips : int;
  (* attached by Engine.set_trace; Trace.null (disabled) by default so the
     kernels never pay more than a flag check *)
  mutable trace : Obs.Trace.t;
  (* the live level<->qubit map; Order.identity until a reorder.  Node
     semantics are purely level-based, so changing the order never
     invalidates unique tables or compute caches — it only changes how
     qubit-facing entry points (basis, gate targets, measurement,
     amplitudes) translate into levels. *)
  mutable order : Order.t;
}

let default_cache_bits = 16

let create ?tolerance ?(cache_bits = default_cache_bits) () =
  if cache_bits < 4 || cache_bits > 24 then
    invalid_arg "Context.create: cache_bits must be in [4, 24]";
  let ctable = Ctable.create ?tolerance () in
  (* the hash-cons normalisation funnel: every child weight of every new
     node passes through here, which makes it the one spot where the
     fault harness can corrupt a weight the way cosmic FP noise would *)
  let intern z =
    let z =
      if Fault.fire Fault.Weight_flip then
        Cnum.make (Fault.flip_float (Cnum.re z)) (Cnum.im z)
      else z
    in
    Ctable.intern ctable z
  in
  let table name bits dummy = Compute_table.create ~name ~bits ~dummy in
  let small = max 4 (cache_bits - 4) in
  {
    ctable;
    v_unique = Hashcons.V.create ~intern ();
    m_unique = Hashcons.M.create ~intern ();
    add_v = table "add_v" cache_bits Types.v_zero;
    add_m = table "add_m" cache_bits Types.m_zero;
    mul_mv = table "mul_mv" cache_bits Types.v_zero;
    mul_mm = table "mul_mm" cache_bits Types.m_zero;
    apply_v = table "apply" cache_bits Types.v_zero;
    dot = table "dot" small Cnum.zero;
    adjoint = table "adjoint" small Types.m_zero;
    norm = table "norm" cache_bits 0.;
    max_mag = table "max_mag" cache_bits 0.;
    identity_cache = Hashtbl.create 64;
    apply_kind_ids = Hashtbl.create 64;
    apply_layout_ids = Hashtbl.create 64;
    apply_stable = Hashtbl.create 1024;
    gc =
      {
        collections = 0;
        pause_total = 0.;
        last_pause = 0.;
        v_reclaimed_total = 0;
        m_reclaimed_total = 0;
        entries_invalidated = 0;
      };
    apply_skips = 0;
    trace = Obs.Trace.null;
    order = Order.identity;
  }

let set_trace ctx trace = ctx.trace <- trace
let set_order ctx order = ctx.order <- order
let order ctx = ctx.order
let level_of_qubit ctx q = Order.level_of_qubit ctx.order q
let qubit_of_level ctx l = Order.qubit_of_level ctx.order l

let cnum ctx z = Ctable.intern ctx.ctable z

(* Dense intern of a structured-apply gate kind / control layout; see the
   field comments above.  Lookups dominate (a circuit has few distinct
   gates), so a plain Hashtbl is fine. *)
let apply_kind_id ctx key =
  match Hashtbl.find_opt ctx.apply_kind_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length ctx.apply_kind_ids + 1 in
    Hashtbl.add ctx.apply_kind_ids key id;
    id

let apply_layout_id ctx key =
  match Hashtbl.find_opt ctx.apply_layout_ids key with
  | Some id -> id
  | None ->
    let id = Hashtbl.length ctx.apply_layout_ids + 1 in
    Hashtbl.add ctx.apply_layout_ids key id;
    id

let clear_compute_caches ctx =
  Compute_table.clear ctx.add_v;
  Compute_table.clear ctx.add_m;
  Compute_table.clear ctx.mul_mv;
  Compute_table.clear ctx.mul_mm;
  Compute_table.clear ctx.apply_v;
  Compute_table.clear ctx.dot;
  Compute_table.clear ctx.adjoint;
  Compute_table.clear ctx.norm;
  Compute_table.clear ctx.max_mag

let v_unique_size ctx = Hashcons.V.created ctx.v_unique
let m_unique_size ctx = Hashcons.M.created ctx.m_unique
let live_v_nodes ctx = Hashcons.V.length ctx.v_unique
let live_m_nodes ctx = Hashcons.M.length ctx.m_unique

let table_stats ctx =
  [
    Compute_table.stats ctx.add_v;
    Compute_table.stats ctx.add_m;
    Compute_table.stats ctx.mul_mv;
    Compute_table.stats ctx.mul_mm;
    Compute_table.stats ctx.apply_v;
    Compute_table.stats ctx.dot;
    Compute_table.stats ctx.adjoint;
    Compute_table.stats ctx.norm;
    Compute_table.stats ctx.max_mag;
  ]

(* -- table residency estimates ---------------------------------------- *)

(* Per-entry heap-word costs, from the record layouts in types.ml / the
   packed compute-table slots.  A vnode is a 5-word block (header + vid,
   level, v_low, v_high) plus two boxed vedges at 3 words each — 11 words.
   An mnode is a 7-word block plus four boxed medges — 19 words.  A packed
   compute-table entry is four key/value slots plus the boxed result edge
   and weight sharing — call it 8 words.  A canonical-weight entry is a
   Cnum (a 4-word mixed float/int block plus two boxed floats at 2 words
   each — 8), its 3-word list cell in the Ctable, and its share of that
   table's tolerance cell: nearly every cell holds one value, so a 4-word
   cell record plus 2–4 index slots (the load factor stays in (1/4, 1/2]
   between growths) — call it 18.  These are estimates for telemetry
   gauges, not an allocator census: slack in the index and weight sharing
   pull in opposite directions and roughly cancel. *)
let vnode_words = 11
let mnode_words = 19
let compute_entry_words = 8
let cnum_entry_words = 18
let bytes_per_word = 8

let unique_table_bytes ctx =
  bytes_per_word
  * ((live_v_nodes ctx * vnode_words)
    + (live_m_nodes ctx * mnode_words)
    + (Ctable.size ctx.ctable * cnum_entry_words))

(* O(1): every Compute_table.length is one field read, never the
   [table_stats] allocation path — this runs on the ledger commit path.
   Entries, not allocated slots, so a table's first store does not move
   the gauge. *)
let compute_table_bytes ctx =
  let entries =
    Compute_table.length ctx.add_v
    + Compute_table.length ctx.add_m
    + Compute_table.length ctx.mul_mv
    + Compute_table.length ctx.mul_mm
    + Compute_table.length ctx.apply_v
    + Compute_table.length ctx.dot
    + Compute_table.length ctx.adjoint
    + Compute_table.length ctx.norm
    + Compute_table.length ctx.max_mag
  in
  bytes_per_word * compute_entry_words * entries

let residency_bytes ctx = unique_table_bytes ctx + compute_table_bytes ctx

let gc_stats ctx = ctx.gc
let apply_skips ctx = ctx.apply_skips
let note_apply_skip ctx = ctx.apply_skips <- ctx.apply_skips + 1

let per_level_v_nodes ctx ~levels =
  Hashcons.V.per_level_counts ctx.v_unique ~levels

let reset_stats ctx =
  Compute_table.reset_counters ctx.add_v;
  Compute_table.reset_counters ctx.add_m;
  Compute_table.reset_counters ctx.mul_mv;
  Compute_table.reset_counters ctx.mul_mm;
  Compute_table.reset_counters ctx.apply_v;
  Compute_table.reset_counters ctx.dot;
  Compute_table.reset_counters ctx.adjoint;
  Compute_table.reset_counters ctx.norm;
  Compute_table.reset_counters ctx.max_mag;
  let gc = ctx.gc in
  gc.collections <- 0;
  gc.pause_total <- 0.;
  gc.last_pause <- 0.;
  gc.v_reclaimed_total <- 0;
  gc.m_reclaimed_total <- 0;
  gc.entries_invalidated <- 0;
  ctx.apply_skips <- 0

let pp_stats fmt ctx =
  Format.fprintf fmt "nodes created: %d vector, %d matrix (live %d / %d)@\n"
    (v_unique_size ctx) (m_unique_size ctx) (live_v_nodes ctx)
    (live_m_nodes ctx);
  List.iter
    (fun s -> Format.fprintf fmt "%a@\n" Compute_table.pp_stats s)
    (table_stats ctx);
  let gc = ctx.gc in
  Format.fprintf fmt
    "gc: %d collections, %.3f ms total pause (last %.3f ms), reclaimed %d \
     vector / %d matrix nodes, %d cache entries dropped@\n"
    gc.collections (1000. *. gc.pause_total) (1000. *. gc.last_pause)
    gc.v_reclaimed_total gc.m_reclaimed_total gc.entries_invalidated

(* Generation-aware mark-and-sweep.  Nodes unreachable from the roots are
   dropped from the unique tables.  Compute-cache entries are swept
   individually: an entry survives the collection iff every node its key
   refers to is still live and its result edge targets a live node —
   marking is recursive, so a live result target implies the whole result
   subgraph was retained.  Surviving entries stay warm, which is the whole
   point: the wholesale cache clear this replaces made every collection
   also a cold-start of the memoisation layer.

   The identity cache acts as a GC root: identities are at most O(n)
   nodes, are rebuilt constantly by gate construction, and rooting them
   keeps both the cache and the shared substructure of every gate DD
   warm. *)
let collect ctx ~v_roots ~m_roots =
  let t0 = Obs.Clock.now () in
  let v_marked = Hashtbl.create 4096 in
  let m_marked = Hashtbl.create 4096 in
  let rec mark_v (node : Types.vnode) =
    if node.Types.level >= 0 && not (Hashtbl.mem v_marked node.Types.vid)
    then begin
      Hashtbl.add v_marked node.Types.vid ();
      mark_v node.Types.v_low.Types.vt;
      mark_v node.Types.v_high.Types.vt
    end
  in
  let rec mark_m (node : Types.mnode) =
    if node.Types.level >= 0 && not (Hashtbl.mem m_marked node.Types.mid)
    then begin
      Hashtbl.add m_marked node.Types.mid ();
      mark_m node.Types.m00.Types.mt;
      mark_m node.Types.m01.Types.mt;
      mark_m node.Types.m10.Types.mt;
      mark_m node.Types.m11.Types.mt
    end
  in
  List.iter (fun (e : Types.vedge) -> mark_v e.Types.vt) v_roots;
  List.iter (fun (e : Types.medge) -> mark_m e.Types.mt) m_roots;
  Hashtbl.iter (fun _ (e : Types.medge) -> mark_m e.Types.mt)
    ctx.identity_cache;
  (* fault harness: drop one *marked* (reachable) node from the vector
     unique table — the over-eager-GC corruption the auditor's
     canonicity walk must detect *)
  let drop_budget = ref (if Fault.fire Fault.Unique_drop then 1 else 0) in
  let v_removed =
    Hashcons.V.prune ctx.v_unique ~keep:(fun n ->
        if Hashtbl.mem v_marked n.Types.vid then
          if !drop_budget > 0 then begin
            decr drop_budget;
            false
          end
          else true
        else false)
  in
  let m_removed =
    Hashcons.M.prune ctx.m_unique ~keep:(fun n ->
        Hashtbl.mem m_marked n.Types.mid)
  in
  (* node ids are never reused, so a key naming a dead id can only ever be
     a harmless miss — but the *values* must not resurrect dead nodes, so
     any entry touching a dead id goes *)
  let v_live id = id = 0 || Hashtbl.mem v_marked id in
  let m_live id = id = 0 || Hashtbl.mem m_marked id in
  let v_edge_live (e : Types.vedge) = v_live e.Types.vt.Types.vid in
  let m_edge_live (e : Types.medge) = m_live e.Types.mt.Types.mid in
  let dropped = ref 0 in
  let ( += ) r n = r := !r + n in
  (* fault harness: skipping the sweeps leaves entries whose values
     resolve to freed nodes — the staleness the table audit must catch *)
  if not (Fault.fire Fault.Table_skip_sweep) then begin
  dropped
  += Compute_table.sweep ctx.add_v ~keep:(fun a b _ v ->
         v_live a && v_live b && v_edge_live v);
  dropped
  += Compute_table.sweep ctx.add_m ~keep:(fun a b _ v ->
         m_live a && m_live b && m_edge_live v);
  dropped
  += Compute_table.sweep ctx.mul_mv ~keep:(fun m v _ r ->
         m_live m && v_live v && v_edge_live r);
  dropped
  += Compute_table.sweep ctx.mul_mm ~keep:(fun a b _ v ->
         m_live a && m_live b && m_edge_live v);
  (* apply_v keys are (state node id, gate kind id, layout id): only the
     first key word names a node; the other two index intern tables that
     never shrink, so they are always valid *)
  dropped
  += Compute_table.sweep ctx.apply_v ~keep:(fun s _ _ r ->
         v_live s && v_edge_live r);
  dropped
  += Compute_table.sweep ctx.dot ~keep:(fun a b _ _ -> v_live a && v_live b);
  dropped
  += Compute_table.sweep ctx.adjoint ~keep:(fun a _ _ v ->
         m_live a && m_edge_live v);
  dropped += Compute_table.sweep ctx.norm ~keep:(fun a _ _ _ -> v_live a);
  dropped += Compute_table.sweep ctx.max_mag ~keep:(fun a _ _ _ -> v_live a)
  end;
  (* rebuild-stability flags are intrinsic to their (immutable) nodes and
     ids are never reused, so stale entries are harmless — dropping the
     dead ones just returns the memory with the nodes *)
  Hashtbl.filter_map_inplace
    (fun id s -> if v_live id then Some s else None)
    ctx.apply_stable;
  let pause = Obs.Clock.now () -. t0 in
  let gc = ctx.gc in
  gc.collections <- gc.collections + 1;
  gc.last_pause <- pause;
  gc.pause_total <- gc.pause_total +. pause;
  gc.v_reclaimed_total <- gc.v_reclaimed_total + v_removed;
  gc.m_reclaimed_total <- gc.m_reclaimed_total + m_removed;
  gc.entries_invalidated <- gc.entries_invalidated + !dropped;
  if Obs.Trace.is_on ctx.trace then
    Obs.Trace.span ctx.trace Obs.Trace.Gc
      ~t0:(Obs.Trace.rel ctx.trace t0)
      ~gate:(Obs.Trace.gate ctx.trace)
      ~state_nodes:(live_v_nodes ctx) ~matrix_nodes:(live_m_nodes ctx)
      ~hits:0 ~misses:0
      ~detail:
        (Printf.sprintf "reclaimed %d+%d nodes, %d cache entries" v_removed
           m_removed !dropped);
  (v_removed, m_removed)
