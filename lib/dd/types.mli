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
    weight's value takes the table ({!Dd_complex.Ctable.get}).  A vector
    node is 5 words and each of its two edges 3 (11 in all); a matrix
    node is 7 words plus four edges (19). *)

type vnode = { vid : int; level : int; v_low : vedge; v_high : vedge }
and vedge = { vw : int; vt : vnode }

type mnode = {
  mid : int;
  level : int;
  m00 : medge;  (** upper-left quadrant *)
  m01 : medge;  (** upper-right quadrant *)
  m10 : medge;  (** lower-left quadrant *)
  m11 : medge;  (** lower-right quadrant *)
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

val m_height : medge -> int
