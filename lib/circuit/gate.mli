(** Elementary quantum gates: a single-qubit operation together with an
    arbitrary set of positive/negative controls.  This matches what QMDD
    packages treat as one elementary operation (one DD, one multiplication),
    e.g. a multi-controlled Z is a single gate here. *)

open Dd_complex

type kind =
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Sx  (** square root of X, used by the supremacy circuits *)
  | Sxdg
  | Sy  (** square root of Y *)
  | Sydg
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float  (** diag(1, e^{i theta}) *)
  | Custom of { matrix : Cnum.t array; label : string }
      (** arbitrary unitary 2x2 row-major matrix *)

type control = { qubit : int; positive : bool }

type t = { kind : kind; target : int; controls : control list }

val make : ?controls:control list -> kind -> int -> t
(** [make ~controls kind target]. *)

val matrix : kind -> Cnum.t array
(** Row-major 2x2 matrix [|m00; m01; m10; m11|] of the base operation. *)

val adjoint : t -> t
(** Inverse gate (same target and controls, adjoint base operation). *)

val qubits : t -> int list
(** Target and control qubits, target first. *)

val name : t -> string
(** Human-readable name, e.g. ["h"], ["rz(0.7854)"], ["ccx"]. *)

val ctrl : int -> control
(** Positive control on a qubit. *)

val nctrl : int -> control
(** Negative control on a qubit. *)

(** Convenience constructors. *)

val x : int -> t
val y : int -> t
val z : int -> t
val h : int -> t
val s : int -> t
val sdg : int -> t
val t_gate : int -> t
val tdg : int -> t
val sx : int -> t
val sy : int -> t
val rx : float -> int -> t
val ry : float -> int -> t
val rz : float -> int -> t
val phase : float -> int -> t
val cx : int -> int -> t
(** [cx control target]. *)

val cz : int -> int -> t
val cphase : float -> int -> int -> t
(** [cphase theta control target]. *)

val ccx : int -> int -> int -> t
(** [ccx control1 control2 target]. *)

val mcz : int list -> int -> t
(** [mcz controls target] — multi-controlled Z. *)

val pp : Format.formatter -> t -> unit
