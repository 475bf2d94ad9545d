(** Matrix decision diagrams (the four-successor nodes of the paper's
    Section II-B) and the operations the paper's strategies are built from:
    matrix-vector multiplication (Fig. 3), matrix-matrix multiplication and
    matrix addition, plus constructors for elementary-gate DDs and for
    directly-constructed oracle DDs (the [DD-construct] strategy). *)

open Dd_complex

type edge = Types.medge

val zero : edge

val make : Context.t -> int -> edge -> edge -> edge -> edge -> edge
(** [make ctx level e00 e01 e10 e11] — normalised, hash-consed matrix node
    with the given quadrants (paper order: upper-left, upper-right,
    lower-left, lower-right). *)

val scale_tag : Context.t -> int -> edge -> edge
(** As {!Vdd.scale_tag}. *)

val terminal : int -> edge
(** As {!Vdd.terminal}. *)

val identity : Context.t -> int -> edge
(** [identity ctx n] is the identity on [n] qubits — a linear-size chain of
    nodes, as the paper notes. Cached per [n]. *)

type control = { qubit : int; positive : bool }
(** A control line of a gate: the gate fires when the qubit is [|1>]
    (positive) or [|0>] (negative). *)

val gate :
  Context.t -> n:int -> target:int -> ?controls:control list ->
  Cnum.t array -> edge
(** [gate ctx ~n ~target ~controls entries] builds the DD of an elementary
    operation: [entries] is the row-major 2x2 matrix [|m00; m01; m10; m11|]
    applied to qubit [target], guarded by [controls], identity elsewhere.
    Qubit indices are translated to DD levels through the context's live
    {!Order.t}, so circuits are untouched by reordering.  Memoised in
    {!Context.t.gate}: asking again for the same gate returns the edge
    the first build produced, until a {!Context.collect} frees it.
    Raises {!Dd_error.Error} ([Invalid_operand]) on out-of-range or
    duplicated qubits. *)

val of_permutation : Context.t -> n:int -> (int -> int) -> edge
(** [of_permutation ctx ~n f] is the unitary [sum_x |f x><x|]; [f] must be a
    bijection on [0, 2^n).  Used by the DD-construct strategy to build
    modular-exponentiation oracles without gate decomposition. *)

val of_dense : Context.t -> Cnum.t array array -> edge
(** Build from a dense square matrix of power-of-two dimension (row-major:
    [m.(row).(col)]); intended for tests. *)

val control_top : Context.t -> n:int -> ?positive:bool -> edge -> edge
(** [control_top ctx ~n u] turns a unitary on [n] qubits into a controlled
    unitary on [n + 1] qubits whose control is the new top qubit. *)

val apply : Context.t -> edge -> Vdd.edge -> Vdd.edge
(** Matrix-vector multiplication on DDs (paper's Fig. 3, Eq. 1 step). *)

val mul : Context.t -> edge -> edge -> edge
(** Matrix-matrix multiplication on DDs (Eq. 2 step): [mul ctx a b] is the
    matrix product [A x B]. *)

val add : Context.t -> edge -> edge -> edge

val adjoint : Context.t -> edge -> edge
(** Conjugate transpose. *)

val to_dense :
  ?order:Order.t -> Context.t -> edge -> n:int -> Cnum.t array array
(** Expand to a dense matrix indexed by qubit bits; [order] (default
    identity) must be the order the DD was built under.  Tests only
    (raises above 12 qubits). *)

val entry :
  ?order:Order.t -> Context.t -> edge -> n:int -> row:int -> col:int -> Cnum.t

val node_count : edge -> int
val iter_nodes : (Types.mnode -> unit) -> edge -> unit
val equal : edge -> edge -> bool

val of_diagonal : Context.t -> n:int -> (int -> Cnum.t) -> edge
(** [of_diagonal ctx ~n f] is the diagonal matrix [diag (f 0, ..., f
    (2^n - 1))] — the natural DD-construct form of phase oracles
    (e.g. Grover's).  Shared sub-diagonals are merged by hash-consing. *)
