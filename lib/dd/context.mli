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
      (** Inert: created as the other hot tables are, but no kernel
          stores into it, and {!table_stats}, {!collect} and the residency
          gauges skip it.  The benchmark's per-layer report (perf/layers.ml)
          still reads its counters, which stay 0; it goes with the next
          change to the benchmark. *)
  gate : Types.medge Compute_table.t;
      (** gate-DD memo ({!Mdd.gate}): (gate kind id, layout id, qubit
          count) *)
  dot : Cnum.t Compute_table.t;
  adjoint : Types.medge Compute_table.t;
  norm : float Compute_table.t;
  max_mag : float Compute_table.t;
  identity_cache : (int, Types.medge) Hashtbl.t;
  gate_kind_ids : (int * int * int * int, int) Hashtbl.t;
      (** dense ids of gate kinds (quadruples of entry tags), the first
          key word of the gate-DD memo; handed out by {!Mdd.gate} *)
  gate_layout_ids : (int * (int * bool) list, int) Hashtbl.t;
      (** dense ids of gate layouts (target level, controls sorted by
          level), the memo's second key word *)
  mutable apply_stable : Bytes.t;
      (** one byte per vector node id: [0] unknown, [1] "a hash-cons
          rebuild of this subtree is bitwise the identity", [2] not;
          lazily filled through {!set_apply_stable} by
          {!Vdd.rebuild_stable}, which {!Mdd.apply} calls before it skips
          an identity.  Ids are never reused, so it is never swept *)
  mutable identity_ids : int array;
      (** per level, the id of that level's identity node once
          {!Mdd.apply}'s identity test has met it, [0] while unknown;
          empty until the first test, grown by {!set_identity_id} and
          zeroed by {!collect}, after which an identity may come back
          under a new id *)
  gc : gc_stats;
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
    its slots on its first store, the identity memo on its first use,
    the two unique tables start at 2^6 slots and the complex table at
    one 256-entry chunk with 2^8 bucket heads, so a fresh context holds
    about 13 KiB (1,663 words reachable from it).  Raises
    [Invalid_argument] outside [4, 24]. *)

val cnum : t -> Cnum.t -> int
(** Intern a complex number in this context's table; returns its tag. *)

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

val clear_compute_caches : t -> unit
(** Drop all memoisation tables (unique tables are kept, so canonicity is
    unaffected).  Useful between timed runs. *)

val set_apply_stable : t -> int -> bool -> unit
(** [set_apply_stable ctx vid stable] records node [vid]'s flag in
    [apply_stable], doubling the bytes until they reach [vid]. *)

val set_identity_id : t -> int -> int -> unit
(** [set_identity_id ctx level id] records node [id] as the identity
    node of [level] in [identity_ids], growing the array to reach
    [level]. *)

val v_unique_size : t -> int
(** Number of distinct vector nodes ever created (monotone). *)

val m_unique_size : t -> int

val live_v_nodes : t -> int
(** Vector nodes currently resident in the unique table. *)

val live_m_nodes : t -> int

val table_stats : t -> Compute_table.stats list
(** Hit/miss/eviction counters of the nine compute tables the kernels
    use, in a fixed order. *)

val unique_table_bytes : t -> int
(** Bytes resident in the unique tables and the canonical weight table:
    live node counts times documented per-node layout costs (vnode 7
    words, mnode 11; 8-byte words), plus the complex table's arrays at
    their capacity ({!Ctable.bytes}).  O(1) and allocation-free — safe on
    hot observability paths. *)

val compute_table_bytes : t -> int
(** Estimated bytes resident across the nine compute tables (8 words
    per packed entry).  Counts entries, so a table whose slots were
    allocated by its first store reads the same as before.  O(1). *)

val residency_bytes : t -> int
(** {!unique_table_bytes} + {!compute_table_bytes} — the [mem.*]
    telemetry gauge and the ledger's per-window memory column. *)

val gc_stats : t -> gc_stats

val apply_skips : t -> int
(** Inert: always [0].  The benchmark's per-layer report
    (perf/layers.ml) still reads it; it goes with the next change to the
    benchmark. *)

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
