(** Canonical table of complex numbers.

    Decision-diagram edge weights are interned here so that numerically equal
    weights (up to the table tolerance) are represented by one physically
    shared {!Cnum.t} with a unique tag.  This is the mechanism that makes
    node hash-consing and compute-cache keys exact integer comparisons, and
    it also implements the machine-accuracy merging discussed in the paper's
    reference [21] (Zulehner et al., DATE 2019). *)

type t

val create : ?tolerance:float -> unit -> t
(** Fresh table; [0] and [1] are pre-registered under {!zero_tag} and
    {!one_tag}.  [tolerance] (default [1e-12]) is the component-wise merging
    radius — tight enough that legitimately distinct amplitudes of deep
    circuits never collide (a coarser radius makes wrong merges that
    fragment DD sharing), wide enough to absorb floating-point noise. *)

val zero_tag : int
(** Tag of the canonical zero, [0]. *)

val one_tag : int
(** Tag of the canonical one, [1]. *)

val tolerance : t -> float

val set_parallel : t -> bool -> unit
(** Enable (or disable) cross-domain sharing: when set, the slow path of
    {!intern} — tag assignment for a weight the table has not seen — runs
    under a mutex so concurrent domains cannot assign duplicate tags.
    The fast path (an already-tagged weight) is lock-free either way.
    Toggle only while no other domain is using the table. *)

val intern : t -> Cnum.t -> Cnum.t
(** [intern table z] returns the canonical representative of [z]: the first
    existing entry within [tolerance] component-wise, or [z] itself freshly
    tagged.  Entries are kept in cells of side [tolerance] and scanned in a
    fixed order — [z]'s own cell, then its four edge neighbours, then its
    four corners, newest entry first within a cell — so the answer depends
    on the order values were interned.  The constants [0] and [1] are
    ordinary entries of that scan: a value within tolerance of one of them
    gets the exact constant only when no earlier-scanned entry matches
    first (an earlier [1.2e-12] captures a later [0.99e-12]).
    Already-tagged values (tag >= 0) are returned unchanged — a table only
    ever sees weights it produced. *)

val size : t -> int
(** Number of distinct canonical values. *)

(** {2 Lock-contention accounting}

    Counted only while {!set_parallel} is armed; the sequential intern
    path never touches these.  Structurally identical to
    [Dd.Compute_table.lock_stats] (this library sits below [dd], so the
    shape is mirrored rather than shared). *)

type lock_stats = {
  acquisitions : int;  (** slow-path lock acquisitions while parallel *)
  contended : int;  (** acquisitions that had to block *)
  wait_seconds : float;  (** total time spent blocked *)
  wait_buckets : int array;
      (** log2 histogram of contended waits: index [e + 32] holds waits
          in [2^(e-1), 2^e) seconds; 64 buckets *)
}

val lock_stats : t -> lock_stats
(** Read at quiescence. *)

val reset_lock_stats : t -> unit
