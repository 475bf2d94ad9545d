(** Shared hash-consing core for vector and matrix DD nodes: one
    normalisation + unique-table code path, instantiated per node arity.
    Each unique table is one open-addressed array of nodes (2^6 slots
    to start, doubled to keep the load factor at or below 1/2).  A node
    keeps its children inline ({!Types}), so a candidate is hashed and
    matched on its own fields: its level, its child weight tags and its
    child targets, compared physically (a node id is handed out once, so
    a target is the same node exactly when its id is).  The node module
    reads those fields itself ({!NODE}), so the probe makes one call
    into it per candidate, not one per field.  See {!Vdd.make} /
    {!Mdd.make} for the public entry points. *)

open Dd_complex

(** A node type as the core sees it.  Children travel as four (weight
    tag, target) argument pairs; a binary node ignores the last two. *)
module type NODE = sig
  type node
  type edge

  val terminal : node
  (** The terminal node; it also marks an empty slot. *)

  val zero_edge : edge
  val edge : int -> node -> edge
  val level : node -> int

  val hash :
    level:int -> int -> node -> int -> node -> int -> node -> int -> node ->
    int
  (** The hash of a node with this level and these children.  It must
      equal {!hash_node} of the node {!build} makes from the same
      arguments, bit for bit: a node filed under another hash is lost
      to the probe once the table resizes. *)

  val hash_node : node -> int
  (** {!hash} of a node's own fields. *)

  val matches :
    node -> level:int -> int -> node -> int -> node -> int -> node -> int ->
    node -> bool
  (** Does the node have this level and these children?  Weight tags
      are compared as ints, targets physically. *)

  val below :
    level:int -> int -> node -> int -> node -> int -> node -> int -> node ->
    bool
  (** Does every child of non-zero weight sit at [level - 1]? *)

  val build :
    id:int -> level:int -> int -> node -> int -> node -> int -> node -> int ->
    node -> node
  (** A node from its id, level and four (weight tag, target) child
      pairs; a binary node ignores the last two. *)
end

module type S = sig
  type node
  type edge
  type t

  val create : Ctable.t -> t
  (** An empty unique table whose nodes' weights are tags of the given
      complex table. *)

  val make :
    t -> level:int -> int -> node -> int -> node -> int -> node -> int ->
    node -> edge
  (** [make t ~level w0 t0 w1 t1 w2 t2 w3 t3] normalises the children
      (child weights, in index order, are divided by the first
      maximal-magnitude child weight, {!Ctable.pivot4}, with
      {!Ctable.div}; a child given with weight zero points at the
      terminal), hash-conses
      the node and returns the canonical edge carrying the factored-out
      weight.  A binary node passes zero weights as children 2 and 3.
      Non-zero children must sit one level below [level].  A hit
      allocates only the returned edge, a miss also the node. *)

  val length : t -> int
  (** Nodes currently resident. *)

  val created : t -> int
  (** Nodes ever created (monotone; node ids are [1 .. created]). *)

  val iter : (node -> unit) -> t -> unit

  val prune : t -> keep:(node -> bool) -> int
  (** Drop every node for which [keep] is false; returns how many were
      dropped.  Used by {!Context.collect} — callers must guarantee no
      live edge references a dropped node. *)

  val mem : t -> node -> bool
  (** Is this exact node (physical equality) the table's resident
      representative?  False for a node that was pruned or forged, or
      that belongs to another context's table — the auditor's
      canonicity probe and [Engine.set_state]'s context check.  One
      probe sequence, allocation-free. *)

  val per_level_counts : t -> levels:int -> int array
  (** Resident-node count per level, [0 .. levels-1], maintained
      incrementally on insert and rebuilt on {!prune} — O(levels), not a
      DD walk.  Counts nodes in the unique table, which between GC
      sweeps is a superset of any single root's reachable set. *)
end

module Make (N : NODE) : S with type node = N.node and type edge = N.edge
module V : S with type node = Types.vnode and type edge = Types.vedge
module M : S with type node = Types.mnode and type edge = Types.medge
