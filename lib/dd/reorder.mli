(** Dynamic variable reordering: adjacent-level swaps (the classic BDD
    swap, specialised to weighted quantum DDs) and a sifting search.

    A swap is a local hash-consed rewrite — every rebuilt node goes
    through {!Vdd.make}, so the pivot/normalisation rule and unique-table
    canonicity are preserved by construction, and nodes below the swapped
    pair are shared untouched.  {!swap} keeps the context's
    {!Order.t} in lockstep with the structure, so the qubit-space
    semantics of the state never change. *)

type stats = {
  mutable swaps : int;  (** adjacent swaps applied *)
  nodes_before : int;  (** state DD nodes when sifting started *)
  mutable nodes_after : int;  (** state DD nodes when sifting returned *)
}

val swap_vector : Context.t -> Vdd.edge -> level:int -> Vdd.edge
(** Exchange levels [level] and [level + 1] of a vector DD — the pure
    structural half of a swap; the caller must swap the order map too
    (use {!swap} unless testing the rewrite itself).  Raises
    [Invalid_argument] when the edge does not reach level [level + 1]. *)

val swap_matrix : Context.t -> Mdd.edge -> level:int -> Mdd.edge
(** Matrix analogue of {!swap_vector}.  The engine never swaps live
    matrices (gate DDs are rebuilt per gate through the order); provided
    for completeness and tests. *)

val swap : Context.t -> Vdd.edge -> level:int -> Vdd.edge
(** One full adjacent swap: {!swap_vector} plus the matching
    {!Order.swap_levels} on the context — structure and order map stay
    consistent. *)

val apply_order : Context.t -> Vdd.edge -> Order.t -> Vdd.edge * int
(** Permute the state to an explicit target order by bubbling each qubit
    to its destination level with adjacent swaps (O(n^2) swaps, each
    linear in the DD size).  Returns the permuted state and the number of
    swaps applied; the context's order becomes the target. *)

val sift : Context.t -> Vdd.edge -> Vdd.edge * stats
(** Sifting (Rudell's algorithm on the state DD): each variable in turn —
    heaviest level first — is moved through every level by adjacent
    swaps and parked where the total node count was minimal; passes
    repeat while the total shrinks, up to 4.  A direction aborts when
    the intermediate DD exceeds twice the running best.  Returns the reordered
    state and swap/node statistics; the context's order reflects the
    final variable placement. *)
