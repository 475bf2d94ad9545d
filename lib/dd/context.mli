(** Shared state of a DD package instance: the canonical complex table, the
    unique (hash-consing) tables for vector and matrix nodes, and the
    fixed-capacity compute tables that memoise addition and multiplication —
    the machinery the paper relies on when it argues that "re-occurring
    sub-products only have to be computed once".  A context belongs to one
    domain: nothing in it is synchronised. *)

open Dd_complex

type gc_stats = {
  mutable collections : int;
  mutable pause_total : float;  (** seconds spent in {!collect}, cumulative *)
  mutable last_pause : float;  (** seconds spent in the last {!collect} *)
  mutable v_reclaimed_total : int;
  mutable m_reclaimed_total : int;
  mutable entries_invalidated : int;
      (** compute-table entries dropped because they referenced dead nodes *)
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
      (** structured-apply memo: (state node id, gate kind id, layout id) *)
  gate : Types.medge Compute_table.t;
      (** gate-DD memo ({!Mdd.gate}): (gate kind id, layout id, qubit
          count) *)
  dot : Cnum.t Compute_table.t;
  adjoint : Types.medge Compute_table.t;
  norm : float Compute_table.t;
  max_mag : float Compute_table.t;
  identity_cache : (int, Types.medge) Hashtbl.t;
  gate_kind_ids : (int * int * int * int, int) Hashtbl.t;
  gate_layout_ids : (int * (int * bool) list, int) Hashtbl.t;
  apply_stable : (int, bool) Hashtbl.t;
      (** node id -> "a hash-cons rebuild of this subtree is bitwise the
          identity"; lazily filled by the structured-apply kernel, swept
          with the unique table on {!collect} *)
  gc : gc_stats;
  mutable apply_skips : int;
      (** structured-apply rebuild-stable short-circuits — cache-equivalent
          wins that never probe the [apply_v] table *)
  mutable trace : Obs.Trace.t;
      (** event sink for kernel-level spans ({!collect} emits [Gc]);
          {!Obs.Trace.null} — disabled, zero-cost — until one is attached *)
  mutable order : Order.t;
      (** the live level<->qubit map ({!Order.identity} by default).
          Node semantics are level-based, so installing a new order never
          invalidates the unique tables or compute caches — it only
          retargets the qubit-facing entry points. *)
}

val create : ?tolerance:float -> ?cache_bits:int -> unit -> t
(** Fresh package instance.  [tolerance] is forwarded to {!Ctable.create}.
    [cache_bits] (default 16) sizes the hot compute tables at
    [2^cache_bits] slots each; the cold tables (dot, adjoint) get
    [2^(cache_bits - 4)], as does the gate-DD memo.  Each table allocates
    its slots on its first store, and the two unique tables start at
    2^10 slots, so a fresh context allocates about 57 KiB.  Raises
    [Invalid_argument] outside [4, 24]. *)

val cnum : t -> Cnum.t -> Cnum.t
(** Intern a complex number in this context's table. *)

val set_trace : t -> Obs.Trace.t -> unit
(** Attach an event sink; pass {!Obs.Trace.null} to detach. *)

val set_order : t -> Order.t -> unit
(** Install a level<->qubit order.  The caller is responsible for keeping
    any live DDs consistent with it — {!Reorder} changes the order and
    the state together; setting an order against an entangled state built
    under a different one silently re-labels its qubits. *)

val order : t -> Order.t

val level_of_qubit : t -> int -> int
(** Level hosting a qubit under the context's live order. *)

val qubit_of_level : t -> int -> int
(** Qubit hosted at a level under the context's live order. *)

type control = { qubit : int; positive : bool }
(** A control line of a gate: the gate fires when the qubit is [|1>]
    (positive) or [|0>] (negative). *)

type gate_site = {
  target_level : int;  (** the target qubit's level under the live order *)
  polarity : bool option array;
      (** per level: [Some positive] on a control level, [None] elsewhere *)
  layout_id : int;
      (** dense id of (target level, controls sorted by level): equal ids
          imply equal layouts, so the id is safe as a compute-table key
          word *)
}

val gate_site :
  t -> operation:string -> n:int -> target:int -> control list ->
  Cnum.t array -> gate_site
(** The shared prelude of {!Mdd.gate} and {!Apply.apply}: check a gate
    request (four entries, target and controls in range, no duplicate
    control, no control on the target), translate its qubits to levels
    through the live order and intern its layout.  Raises
    {!Dd_error.Error} ([Invalid_operand], naming [operation]) on
    malformed input.  Interns no complex number. *)

val gate_kind : t -> Cnum.t array -> Cnum.t array * int
(** [gate_kind ctx entries] interns the four entries, in order, and
    returns them with the dense id of their tag quadruple — the gate's
    kind.  Equal ids imply equal matrices. *)

val clear_compute_caches : t -> unit
(** Drop all memoisation tables (unique tables are kept, so canonicity is
    unaffected).  Useful between timed runs. *)

val v_unique_size : t -> int
(** Number of distinct vector nodes ever created (monotone). *)

val m_unique_size : t -> int

val live_v_nodes : t -> int
(** Vector nodes currently resident in the unique table. *)

val live_m_nodes : t -> int

val table_stats : t -> Compute_table.stats list
(** Hit/miss/eviction counters of every compute table, in a fixed order. *)

val unique_table_bytes : t -> int
(** Estimated bytes resident in the unique tables and the canonical
    weight table, from live entry counts times documented per-entry
    layout costs (vnode 11 words, mnode 19, weight 18; 8-byte words).
    O(1) — safe on hot observability paths. *)

val compute_table_bytes : t -> int
(** Estimated bytes resident across all ten compute tables (8 words
    per packed entry).  Counts entries, so a table whose slots were
    allocated by its first store reads the same as before.  O(1). *)

val residency_bytes : t -> int
(** {!unique_table_bytes} + {!compute_table_bytes} — the [mem.*]
    telemetry gauge and the ledger's per-window memory column. *)

val gc_stats : t -> gc_stats

val apply_skips : t -> int
(** Structured-apply rebuild-stable short-circuits since the last
    {!reset_stats}: subtrees the kernel proved a rebuild would return
    unchanged, answered in O(1) without probing the apply table.  On
    cache-friendly circuits these skips, not probe hits, carry most of
    the reuse. *)

val note_apply_skip : t -> unit
(** Count one rebuild-stable short-circuit (called by the apply kernel). *)

val per_level_v_nodes : t -> levels:int -> int array
(** Resident vector nodes per level, straight from the unique table's
    incrementally maintained counters — O(levels), no DD walk.  Between
    collections this counts the whole resident table (a superset of any
    one root's reachable set), which is exactly what the adaptive-reorder
    bulge probe wants to bound. *)

val reset_stats : t -> unit
(** Zero the compute-table counters and the GC statistics.  Node-creation
    totals ({!v_unique_size}) are identifiers and stay monotone. *)

val pp_stats : Format.formatter -> t -> unit

val collect : t -> v_roots:Types.vedge list -> m_roots:Types.medge list ->
  int * int
(** Generation-aware mark-and-sweep garbage collection: every node
    unreachable from the given root edges (plus the identity cache, which
    is rooted) is dropped from the unique tables.  Compute-table entries
    are swept individually — entries whose nodes all survive stay warm
    across the collection; only entries referencing dead nodes are
    invalidated.  Long-running simulations call this periodically with the
    current state (and any cached oracle matrices) as roots.  Returns the
    numbers of vector and matrix nodes removed. *)
