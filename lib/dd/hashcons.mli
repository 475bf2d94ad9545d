(** Shared hash-consing core for vector and matrix DD nodes: one
    normalisation + unique-table code path, instantiated per node arity.
    Each unique table is one open-addressed array of nodes (2^16 slots
    to start, doubled to keep the load factor at or below 1/2).  See
    {!Vdd.make} / {!Mdd.make} for the public entry points. *)

open Dd_complex

module type NODE = sig
  type node
  type edge

  val arity : int
  val terminal : node
  val zero_edge : edge
  val is_zero : edge -> bool
  val weight : edge -> Cnum.t
  val target : edge -> node
  val edge : Cnum.t -> node -> edge
  val id : node -> int
  val level : node -> int
  val child : node -> int -> edge
  val build : id:int -> level:int -> edge array -> node
end

module type S = sig
  type node
  type edge
  type t

  val create : intern:(Cnum.t -> Cnum.t) -> unit -> t

  val make : t -> level:int -> edge array -> edge
  (** Normalise [children] (mutated in place: child weights are divided by
      the first maximal-magnitude child weight and interned), hash-cons
      the node, return the canonical edge carrying the factored-out
      weight.  [children] must have length [arity]; non-zero children
      must sit one level below [level]. *)

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
      representative?  False for a node that was pruned or forged —
      the auditor's canonicity probe. *)

  val per_level_counts : t -> levels:int -> int array
  (** Resident-node count per level, [0 .. levels-1], maintained
      incrementally on insert and rebuilt on {!prune} — O(levels), not a
      DD walk.  Counts nodes in the unique table, which between GC
      sweeps is a superset of any single root's reachable set. *)
end

module Make (N : NODE) : S with type node = N.node and type edge = N.edge
module V : S with type node = Types.vnode and type edge = Types.vedge
module M : S with type node = Types.mnode and type edge = Types.medge
