(** Vector decision diagrams: the state-vector representation of the paper's
    Section II-B (Fig. 2c), with edge weights and shared sub-vectors. *)

open Dd_complex

type edge = Types.vedge

val zero : edge
(** Zero vector of any height. *)

val make : Context.t -> int -> edge -> edge -> edge
(** [make ctx level low high] is the normalised, hash-consed node whose low
    and high children are [low] and [high] (both of height [level], with
    canonical weights).  Normalisation divides both child weights by the one
    with the largest magnitude (low on ties), which is propagated to the
    returned edge.  On a node that already exists it allocates only the
    returned edge (3 words). *)

val scale : Context.t -> Cnum.t -> edge -> edge
(** Multiply an edge weight by a scalar (result weight interned).  A
    scalar of exactly zero gives {!zero}, exactly one the edge itself. *)

val scale_tag : Context.t -> int -> edge -> edge
(** {!scale} by a canonical weight, given by its tag. *)

val scale_product : Context.t -> int -> int -> edge -> edge
(** [scale_product ctx a b e] is {!scale} by the product of the weights
    [a] and [b], which is not interned ({!Dd_complex.Ctable.scale_product}). *)

val mul_weight : Ctable.t -> int -> int -> int
(** [mul_weight table r w] is the weight tag {!scale_tag} by [r] gives an
    edge of weight [w]: zero if either is zero, [w] if [r] is one, their
    interned product otherwise.  For kernels that scale a child read
    from its node's fields without building the child's edge. *)

val terminal : int -> edge
(** The edge of weight tag [w] into the terminal ({!zero} for
    {!Dd_complex.Ctable.zero_tag}). *)

val rebuild_stable : Context.t -> Types.vnode -> bool
(** Does {!make} rebuild every node of this subtree as itself, that is,
    is every node's normalisation pivot exactly one?  Usually, but
    tolerance interning can leave stored children such as [-1; 1].  An
    identity acting on a rebuild-stable subtree returns it unchanged, so
    {!Mdd.apply} answers such a product in O(1); any other subtree takes
    its recursion.  Memoised per node id in {!Context.t.apply_stable}. *)

val basis : Context.t -> n:int -> int -> edge
(** [basis ctx ~n i] is the computational basis state [|i>] on [n] qubits
    (bit [k] of [i] is the value of qubit [k]).  Levels are assigned
    through the context's live {!Order.t}. *)

val of_array : Context.t -> Cnum.t array -> edge
(** Build a DD from a dense amplitude vector (length must be a power of
    two).  Index bit [k] corresponds to qubit [k]; the context's live
    order decides which level hosts each qubit. *)

val to_array : ?order:Order.t -> Context.t -> edge -> n:int -> Cnum.t array
(** Expand to a dense vector indexed by qubit bits; [order] (default
    identity) must be the order the DD was built under.  Intended for
    tests and small [n] (raises [Invalid_argument] above 24 qubits). *)

val amplitude : ?order:Order.t -> Context.t -> edge -> n:int -> int -> Cnum.t
(** Amplitude of basis state [i]: the product of the edge weights along the
    path selected by the bits of [i] (paper's Example 2), with each
    level's steering bit picked through [order] (default identity). *)

val add : Context.t -> edge -> edge -> edge
(** Pointwise sum, memoised with the top weights factored out (paper's
    Fig. 4). Operands must have equal heights. *)

val dot : Context.t -> edge -> edge -> Cnum.t
(** Inner product [<a|b>] (conjugate-linear in the first argument). *)

val node_count : edge -> int
(** Number of distinct non-terminal nodes reachable from the edge — the
    paper's measure of DD size. *)

val iter_nodes : (Types.vnode -> unit) -> edge -> unit
(** Apply a function to every distinct non-terminal node (top-down order not
    specified). *)

val equal : edge -> edge -> bool
(** Canonical equality (same node, same weight tag). *)

val truncate : Context.t -> threshold:float -> edge -> edge
(** Approximate simulation support: rebuild the DD with every sub-vector
    whose total contribution (edge-weight magnitude times the sub-vector's
    largest path magnitude) falls below [threshold] replaced by zero, then
    renormalise to unit norm.  Raises [Invalid_argument] if everything
    would be truncated. *)
