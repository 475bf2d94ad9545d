(** Canonical table of complex numbers.

    Decision-diagram edge weights live here, and an edge carries only
    the integer tag of its weight.  Numerically equal weights (up to the
    table tolerance) share one tag, which makes node hash-consing and
    compute-cache keys exact integer comparisons; it also implements the
    machine-accuracy merging of the paper's reference [21] (Zulehner et
    al., DATE 2019), whose DD package keeps weights the same way.

    Values are stored unboxed in append-only chunks of 256 tags: one
    float array per chunk holds each tag's real part, imaginary part and
    bucket-chain link, so growing the table appends a chunk and copies
    no entry, and the OCaml GC never scans one.  The bucket heads are
    one [Bytes] of int32, doubling with the number of tags.  Weight
    arithmetic is done here, tag in and tag out, with {!Cnum}'s formulas
    — bit for bit the same results — so a product, quotient or sum whose
    result is already in the table allocates nothing.  A float that
    crossed into another module would be boxed.

    Tags are handed out densely from [2]; they are never reused, and
    the table holds at most 2^31 tags (the largest is [2^31 - 1]; one
    more raises [Invalid_argument]).  Every function taking a tag raises
    [Invalid_argument] for an int outside [[0, size)]. *)

type t

val create : ?tolerance:float -> unit -> t
(** Fresh table; [0] and [1] are pre-registered under {!zero_tag} and
    {!one_tag}.  [tolerance] (default [1e-12]) is the component-wise merging
    radius — tight enough that legitimately distinct amplitudes of deep
    circuits never collide (a coarser radius makes wrong merges that
    fragment DD sharing), wide enough to absorb floating-point noise. *)

val zero_tag : int
(** Tag of the canonical zero, [0].  A tag is [zero_tag] exactly when
    its value is exactly [0 + 0i]. *)

val one_tag : int
(** Tag of the canonical one, [1].  A tag is [one_tag] exactly when its
    value is exactly [1 + 0i]. *)

val tolerance : t -> float

val intern : t -> Cnum.t -> int
(** [intern table z] is the tag of the canonical representative of [z]:
    an existing entry within [tolerance] component-wise, or a fresh tag
    for [z] itself.  The representative is fixed by a scan over
    tolerance cells — [z]'s own cell, then its four edge neighbours, then
    its four corners, newest entry first within a cell; the first entry
    within tolerance wins — so the answer depends on the order values
    were interned.  The constants [0] and [1] are ordinary entries of
    that scan: a value within tolerance of one of them gets the exact
    constant only when no earlier-scanned entry matches first (an earlier
    [1.2e-12] captures a later [0.99e-12]).

    The cells are grouped in blocks of 16 x 16, and each block hashes to
    a bucket whose entries are chained newest first, so a lookup walks
    the one to four buckets the 3 x 3 cell neighbourhood overlaps.
    Neither the block size nor the bucket count can change a tag. *)

val size : t -> int
(** Number of distinct canonical values; valid tags are [[0, size)]. *)

val bytes : t -> int
(** Bytes held by the table: every heap block reachable from it (the
    chunks in use, the chunk-pointer and head arrays at their
    capacities, the record), with headers, in 8-byte words.  O(1),
    allocation-free. *)

val get : t -> int -> Cnum.t
(** The value of a tag, as a fresh {!Cnum.t}. *)

val mag2 : t -> int -> float
(** Squared magnitude of a tag's value. *)

(** {2 Weight arithmetic}

    Each operation reads its operands' values, computes with the
    formula of the {!Cnum} function it names, and interns the result. *)

val mul : t -> int -> int -> int
(** [mul table a b] interns [Cnum.mul a b].  A product by {!one_tag}
    returns the other operand's tag without a lookup when its value is
    finite: the formula reproduces that value up to the sign of a zero,
    which interns to the same tag. *)

val div : t -> int -> int -> int
(** [div table a b] interns [Cnum.div a b]; raises [Division_by_zero]
    when [b]'s squared magnitude is exactly zero.  [div a a] is
    {!one_tag} and [div a one_tag] is [a] without a lookup whenever the
    formula yields exactly [1 + 0i], respectively [a]'s value up to the
    sign of a zero. *)

val add : t -> int -> int -> int
(** [add table a b] interns [Cnum.add a b]. *)

val conj : t -> int -> int
(** [conj table a] interns [Cnum.conj a]. *)

val conj_mul : t -> int -> int -> int
(** [conj_mul table a b] interns [Cnum.mul (Cnum.conj a) b]. *)

val mul_value : t -> Cnum.t -> int -> int
(** [mul_value table s b] interns [Cnum.mul s b] for a plain value
    [s]. *)

val scale_product : t -> int -> int -> int -> int
(** [scale_product table a b c] multiplies [c] by the uninterned
    product [s = Cnum.mul a b], the way a DD edge of weight [c] is scaled
    by [s]: [zero_tag] when [s] is exactly zero, [c] itself when [s] is
    exactly one, otherwise the interned [Cnum.mul s c]. *)

val pivot4 : t -> int -> int -> int -> int -> int
(** The first of four tags whose squared magnitude is strictly maximal —
    the normalisation pivot of a DD node (pass [zero_tag] for missing
    children: zero never wins).  [zero_tag] when every value has
    magnitude [0]. *)
