(** Structural profiling walks over decision diagrams.

    Produces the {!Obs.Dd_profile.snapshot} data model — per-level node
    and edge counts, log2 edge-weight-magnitude histograms, the
    subtree-sharing factor, and the identity-region fraction — from a
    live VDD or MDD.  One pass over the distinct nodes, so the cost is
    proportional to the DD size (the quantity being measured), not to
    [2^n]. *)

val vector :
  ?gate:int -> ?t:float -> ?order:Order.t -> Context.t -> Vdd.edge ->
  Obs.Dd_profile.snapshot
(** [gate] (default [-1]) and [t] (default [0.]) stamp the snapshot;
    [order] (default identity) labels each level with the qubit it hosts.
    A node counts toward the identity fraction when its low and high
    edges are equal — the qubit at that level is unentangled and
    unbiased below this node. *)

val matrix :
  ?gate:int -> ?t:float -> ?order:Order.t -> Context.t -> Mdd.edge ->
  Obs.Dd_profile.snapshot
(** A node counts toward the identity fraction when it acts as the
    identity at its level: equal diagonal quadrants and zero
    off-diagonals. *)

val pp : Format.formatter -> Obs.Dd_profile.snapshot -> unit
(** Terminal-friendly per-level table (the [ddsim inspect] rendering). *)
