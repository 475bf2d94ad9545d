(** Complex numbers as plain values.

    A [t] is a flat pair of unboxed floats.  It is the form complex
    numbers take at the package's boundary — amplitudes, gate matrices,
    dense vectors, scalars handed to {!Dd.Vdd.scale} — and in readers
    that multiply weights out.  Inside a decision diagram an edge weight
    is not a [t] but an integer tag of a {!Ctable}, which stores the
    canonical values unboxed and computes on them with the formulas
    below. *)

type t = { re : float; im : float }

val zero : t
(** [0 + 0i]; interns to {!Ctable.zero_tag}. *)

val one : t
(** [1 + 0i]; interns to {!Ctable.one_tag}. *)

val make : float -> float -> t
(** [make re im] is [re + im*i]. *)

val of_float : float -> t
(** [of_float x] is [make x 0.]. *)

val of_polar : float -> float -> t
(** [of_polar r theta] is [r * (cos theta + i sin theta)]. *)

val re : t -> float
val im : t -> float

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** [div a b] raises [Division_by_zero] when [b] is exactly zero. *)

val neg : t -> t
val conj : t -> t
val scale : float -> t -> t

val mag2 : t -> float
(** Squared magnitude [re*re + im*im]. *)

val mag : t -> float

val approx_zero : ?tol:float -> t -> bool
(** Component-wise comparison against zero; [tol] defaults to [1e-12]. *)

val approx_equal : ?tol:float -> t -> t -> bool
(** Component-wise comparison. *)

val is_exact_zero : t -> bool
val is_exact_one : t -> bool

val compare_mag : t -> t -> int
(** Total order by squared magnitude, then by real part, then imaginary
    part; used for deterministic normalisation tie-breaks. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
