(** Node and edge representations shared by the whole DD package.

    Levels count from the bottom: the node adjacent to the terminal has
    level [0]; a DD over [n] qubits is rooted at level [n - 1].  Qubit [k]
    corresponds to bit [k] of a basis-state index (qubit [n-1] is the most
    significant).  There is no level skipping: every non-zero edge leaving a
    node at level [l] targets a node at level [l - 1] (or the terminal when
    [l = 0]).  Zero sub-vectors/sub-matrices are represented by {e zero
    edges} — weight {!Dd_complex.Ctable.zero_tag}, target the terminal — the
    "0-stubs" of the paper's Fig. 2c.

    An edge weight is the tag of a canonical value in its context's
    {!Dd_complex.Ctable} ([Context.t.ctable]), so two edges are equal iff
    their targets' ids and their weight tags agree, and reading a
    weight's value takes the table ({!Dd_complex.Ctable.get}).

    A node holds its child edges inline, as (weight tag, target) field
    pairs: a vector node is one 7-word block (header, id, level, two
    pairs) and a matrix node one 11-word block (four pairs).  No node
    points at an edge block.  {!vedge} / {!medge} are the values the
    kernels pass and return and the compute tables store; kernels read a
    node's children from its fields without building edges, and the
    allocating accessors {!v_low}, {!v_high} and {!m_child} are for
    code off the hot paths. *)

type vnode = {
  vid : int;
  level : int;
  lw : int;  (** low (|0>) child's weight tag *)
  lt : vnode;  (** low child's target *)
  hw : int;  (** high (|1>) child's weight tag *)
  ht : vnode;  (** high child's target *)
}

and vedge = { vw : int; vt : vnode }

type mnode = {
  mid : int;
  level : int;
  w00 : int;  (** upper-left quadrant: weight tag ... *)
  t00 : mnode;  (** ... and target *)
  w01 : int;  (** upper-right quadrant *)
  t01 : mnode;
  w10 : int;  (** lower-left quadrant *)
  t10 : mnode;
  w11 : int;  (** lower-right quadrant *)
  t11 : mnode;
}

and medge = { mw : int; mt : mnode }

val v_terminal : vnode
(** The unique vector terminal (level [-1], id [0]). *)

val m_terminal : mnode
(** The unique matrix terminal (level [-1], id [0]). *)

val v_zero : vedge
(** Canonical zero vector edge. *)

val m_zero : medge
(** Canonical zero matrix edge. *)

val v_low : vnode -> vedge
(** A node's low child as an edge (allocates). *)

val v_high : vnode -> vedge

val m_child : mnode -> int -> medge
(** [m_child n i] is quadrant [i] (0 = 00, 1 = 01, 2 = 10, 3 = 11) as
    an edge (allocates). *)

val v_is_terminal : vnode -> bool
val m_is_terminal : mnode -> bool

val v_is_zero : vedge -> bool
(** True iff the edge is a zero stub (weight {!Dd_complex.Ctable.zero_tag}). *)

val m_is_zero : medge -> bool

val v_edge_equal : vedge -> vedge -> bool
(** Structural edge equality via node ids and weight tags. *)

val m_edge_equal : medge -> medge -> bool

val v_height : vedge -> int
(** Number of qubits spanned by a non-zero edge; [0] for scalars. Zero edges
    span any height and report [0]. *)
