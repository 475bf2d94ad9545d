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
  (* an inert shim: created, never stored into, swept or counted (see
     context.mli) *)
  apply_v : Types.vedge Compute_table.t;
  (* Mdd.gate memo: (kind id, layout id, qubit count) -> gate DD *)
  gate : Types.medge Compute_table.t;
  dot : Cnum.t Compute_table.t;
  adjoint : Types.medge Compute_table.t;
  norm : float Compute_table.t;
  max_mag : float Compute_table.t;
  identity_cache : (int, Types.medge) Hashtbl.t;
  (* Collision-free small-integer keys of the gate-DD memo, handed out by
     Mdd.gate: a gate kind is the quadruple of interned 2x2 entry tags, a
     layout is (target level, sorted (level, polarity) controls).  Ids are
     dense and never reused. *)
  gate_kind_ids : (int * int * int * int, int) Hashtbl.t;
  gate_layout_ids : (int * (int * bool) list, int) Hashtbl.t;
  (* one byte per vector node id: 0 unknown, 1 "a hash-cons rebuild of
     this subtree is bitwise the identity", 2 not; intrinsic to the
     immutable node, computed lazily by Vdd.rebuild_stable for
     Mdd.apply's identity skip *)
  mutable apply_stable : Bytes.t;
  (* per level, the id of the identity node Mdd.apply met there, 0 while
     unknown; allocated on first use and emptied by [collect] (see
     mdd.ml) *)
  mutable identity_ids : int array;
  gc : gc_stats;
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
  let table name bits dummy = Compute_table.create ~name ~bits ~dummy in
  let small = max 4 (cache_bits - 4) in
  {
    ctable;
    v_unique = Hashcons.V.create ctable;
    m_unique = Hashcons.M.create ctable;
    add_v = table "add_v" cache_bits Types.v_zero;
    add_m = table "add_m" cache_bits Types.m_zero;
    mul_mv = table "mul_mv" cache_bits Types.v_zero;
    mul_mm = table "mul_mm" cache_bits Types.m_zero;
    apply_v = table "apply" cache_bits Types.v_zero;
    gate = table "gate" small Types.m_zero;
    dot = table "dot" small Cnum.zero;
    adjoint = table "adjoint" small Types.m_zero;
    norm = table "norm" cache_bits 0.;
    max_mag = table "max_mag" cache_bits 0.;
    identity_cache = Hashtbl.create 64;
    gate_kind_ids = Hashtbl.create 64;
    gate_layout_ids = Hashtbl.create 64;
    apply_stable = Bytes.empty;
    identity_ids = [||];
    gc =
      {
        collections = 0;
        pause_total = 0.;
        last_pause = 0.;
        v_reclaimed_total = 0;
        m_reclaimed_total = 0;
        entries_invalidated = 0;
      };
    trace = Obs.Trace.null;
    order = Order.identity;
  }

let set_trace ctx trace = ctx.trace <- trace
let set_order ctx order = ctx.order <- order
let order ctx = ctx.order
let level_of_qubit ctx q = Order.level_of_qubit ctx.order q
let qubit_of_level ctx l = Order.qubit_of_level ctx.order l

let cnum ctx z = Ctable.intern ctx.ctable z

(* Every compute table, in [table_stats] order, for the walks that treat
   them alike.  A fold with a polymorphic visitor instead of a list of
   wrapped tables: the walk allocates nothing, which keeps
   [compute_table_bytes] free on the ledger commit path.  [collect] does
   not use it: each table's sweep has its own liveness rule. *)
type 'acc visitor = { visit : 'v. 'v Compute_table.t -> 'acc -> 'acc }

let fold_tables ctx { visit } acc =
  acc |> visit ctx.add_v |> visit ctx.add_m |> visit ctx.mul_mv
  |> visit ctx.mul_mm |> visit ctx.dot |> visit ctx.adjoint
  |> visit ctx.norm |> visit ctx.max_mag |> visit ctx.gate

let clear_compute_caches ctx =
  fold_tables ctx { visit = (fun t () -> Compute_table.clear t) } ()

(* Ids are never reused and the flag is intrinsic to its node, so the
   bytes only ever grow: a dead id's flag is never read again. *)
let set_apply_stable ctx vid stable =
  let flags = ctx.apply_stable in
  let flags =
    if vid < Bytes.length flags then flags
    else begin
      let n = ref (max 64 (2 * Bytes.length flags)) in
      while vid >= !n do
        n := 2 * !n
      done;
      let grown = Bytes.make !n '\000' in
      Bytes.blit flags 0 grown 0 (Bytes.length flags);
      ctx.apply_stable <- grown;
      grown
    end
  in
  Bytes.set flags vid (if stable then '\001' else '\002')

let set_identity_id ctx level id =
  let ids = ctx.identity_ids in
  let ids =
    if level < Array.length ids then ids
    else begin
      let grown = Array.make (max 32 (2 * level)) 0 in
      Array.blit ids 0 grown 0 (Array.length ids);
      ctx.identity_ids <- grown;
      grown
    end
  in
  ids.(level) <- id

let v_unique_size ctx = Hashcons.V.created ctx.v_unique
let m_unique_size ctx = Hashcons.M.created ctx.m_unique
let live_v_nodes ctx = Hashcons.V.length ctx.v_unique
let live_m_nodes ctx = Hashcons.M.length ctx.m_unique

let table_stats ctx =
  List.rev
    (fold_tables ctx
       { visit = (fun t stats -> Compute_table.stats t :: stats) }
       [])

(* -- table residency estimates ---------------------------------------- *)

(* Per-entry heap-word costs, from the record layouts in types.ml / the
   packed compute-table slots.  A vnode is one 7-word block (header + vid,
   level and two inline (weight tag, target) child pairs); an mnode is one
   11-word block with four pairs.  A packed
   compute-table entry is four key/value slots plus the boxed result edge
   and weight sharing — call it 8 words.  These are estimates for
   telemetry gauges, not an allocator census.  The complex table needs no
   estimate: its arrays report their own capacity. *)
let vnode_words = 7
let mnode_words = 11
let compute_entry_words = 8
let bytes_per_word = 8

let unique_table_bytes ctx =
  (bytes_per_word
  * ((live_v_nodes ctx * vnode_words) + (live_m_nodes ctx * mnode_words)))
  + Ctable.bytes ctx.ctable

(* O(1): one field read per table, never a [table_stats] record — this
   runs on the ledger commit path.  Entries, not allocated slots, so a
   table's first store does not move the gauge. *)
let count_entries = { visit = (fun t n -> n + Compute_table.length t) }

let compute_table_bytes ctx =
  bytes_per_word * compute_entry_words * fold_tables ctx count_entries 0

let residency_bytes ctx = unique_table_bytes ctx + compute_table_bytes ctx

let gc_stats ctx = ctx.gc
let apply_skips _ctx = 0

let per_level_v_nodes ctx ~levels =
  Hashcons.V.per_level_counts ctx.v_unique ~levels

let reset_stats ctx =
  fold_tables ctx { visit = (fun t () -> Compute_table.reset_counters t) } ();
  let gc = ctx.gc in
  gc.collections <- 0;
  gc.pause_total <- 0.;
  gc.last_pause <- 0.;
  gc.v_reclaimed_total <- 0;
  gc.m_reclaimed_total <- 0;
  gc.entries_invalidated <- 0

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
  (* one byte per node id ever handed out, 1 when live; the terminals'
     id 0 is always live *)
  let v_marked = Bytes.make (v_unique_size ctx + 1) '\000' in
  let m_marked = Bytes.make (m_unique_size ctx + 1) '\000' in
  Bytes.set v_marked 0 '\001';
  Bytes.set m_marked 0 '\001';
  let marked flags id = Bytes.get flags id = '\001' in
  let rec mark_v (node : Types.vnode) =
    let id = node.Types.vid in
    if node.Types.level >= 0 && not (marked v_marked id) then begin
      Bytes.set v_marked id '\001';
      mark_v node.Types.lt;
      mark_v node.Types.ht
    end
  in
  let rec mark_m (node : Types.mnode) =
    let id = node.Types.mid in
    if node.Types.level >= 0 && not (marked m_marked id) then begin
      Bytes.set m_marked id '\001';
      mark_m node.Types.t00;
      mark_m node.Types.t01;
      mark_m node.Types.t10;
      mark_m node.Types.t11
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
        if marked v_marked n.Types.vid then
          if !drop_budget > 0 then begin
            decr drop_budget;
            false
          end
          else true
        else false)
  in
  let m_removed =
    Hashcons.M.prune ctx.m_unique ~keep:(fun n -> marked m_marked n.Types.mid)
  in
  (* a pruned identity may come back under a new id *)
  Array.fill ctx.identity_ids 0 (Array.length ctx.identity_ids) 0;
  (* node ids are never reused, so a key naming a dead id can only ever be
     a harmless miss — but the *values* must not resurrect dead nodes, so
     any entry touching a dead id goes *)
  let v_live id = marked v_marked id in
  let m_live id = marked m_marked id in
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
  dropped
  += Compute_table.sweep ctx.dot ~keep:(fun a b _ _ -> v_live a && v_live b);
  dropped
  += Compute_table.sweep ctx.adjoint ~keep:(fun a _ _ v ->
         m_live a && m_edge_live v);
  dropped += Compute_table.sweep ctx.norm ~keep:(fun a _ _ _ -> v_live a);
  dropped += Compute_table.sweep ctx.max_mag ~keep:(fun a _ _ _ -> v_live a);
  (* gate keys are (kind id, layout id, n) and name no node: an entry
     lives exactly as long as the gate DD it returns *)
  dropped += Compute_table.sweep ctx.gate ~keep:(fun _ _ _ g -> m_edge_live g)
  end;
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
