(** Structural snapshots of a decision diagram — the *why* behind a node
    count.

    The paper's cost model (Section III) is structural: multiplication
    effort follows the number of distinct sub-diagrams per level, how much
    they are shared, and how the edge weights spread — not the [2^n]
    width.  A scalar node count (what {!Trace} records per gate) says
    *when* a state DD explodes; a {!snapshot} says *where*: per-level node
    and edge counts, log2 histograms of edge-weight magnitudes, the
    subtree-sharing factor, and the fraction of structurally trivial
    ("identity-region") nodes.

    This module owns the data model, the bounded in-memory {!sink}
    collecting snapshots at a gate cadence, and the versioned JSONL
    sidecar format ([ddsim-profile] v1) written next to a trace.  The
    walks that actually *produce* snapshots live in [Dd.Profile] (they
    need node access); the engine emits through a sink so that a disabled
    profiler is a single load-and-branch with zero allocation (asserted by
    the test suite, like the disabled-trace guarantee). *)

type level = {
  level : int;  (** DD level, counted from the terminal ([0] adjacent) *)
  qubit : int;
      (** qubit hosted at this level under the run's variable order;
          equals [level] under the identity order (and when parsing
          sidecars written before reordering existed) *)
  nodes : int;  (** distinct nodes at this level *)
  edges : int;  (** non-zero out-edges leaving those nodes *)
  zero_edges : int;  (** zero stubs leaving those nodes *)
  weights : (int * int) list;
      (** sparse log2 histogram of out-edge weight magnitudes: pairs
          [(exponent, count)] with {!bucket_exponent} semantics,
          ascending by exponent *)
}

val bucket_exponent : float -> int
(** The log2 bucket a weight magnitude lands in: the [e] in [-32, 31]
    with [2^(e-1) <= v < 2^e] (non-positive values land in -32,
    out-of-range exponents clamp). *)

type snapshot = {
  gate_index : int;  (** flattened gate index the DD reflects; [-1] n/a *)
  t : float;  (** seconds since the profile epoch; [0.] when untimed *)
  dd : string;  (** ["vector"] or ["matrix"] *)
  nodes : int;  (** total distinct non-terminal nodes *)
  edges : int;  (** total non-zero edges (including the root edge) *)
  sharing : float;
      (** mean in-degree of non-terminal nodes: non-zero edges targeting
          non-terminals (root included) divided by [nodes]; [1.] means a
          tree, higher means re-use *)
  identity_fraction : float;
      (** fraction of nodes that are structurally trivial: for a vector
          DD, nodes whose low and high edges are equal (an unentangled,
          unbiased qubit); for a matrix DD, nodes acting as the identity
          on their level (diagonal quadrants equal, off-diagonals zero) *)
  levels : level list;  (** descending by level (root first) *)
}

(** {1 Sinks}

    A sink collects snapshots at a gate cadence.  Engines hold {!null}
    (disabled, records nothing, costs one branch per {!due} probe) until a
    real sink is attached. *)

type sink

val null : sink
(** The shared disabled sink: {!is_on} is [false], {!due} is always
    [false], {!emit} drops. *)

val create : ?every:int -> ?max_snapshots:int -> unit -> sink
(** A fresh enabled sink snapshotting every [every] gates (default [1]).
    [max_snapshots] (default [65536]) bounds memory; excess snapshots are
    counted in {!dropped} instead of stored. *)

val is_on : sink -> bool

val every : sink -> int

val due : sink -> gate:int -> bool
(** [true] when the sink is enabled and at least [every] gates landed
    since the last emission (or nothing was emitted yet).  First action is
    the enabled check; no argument allocates, so a disabled probe
    allocates nothing. *)

val emit : sink -> snapshot -> unit
(** Record a snapshot and advance the cadence cursor to its
    [gate_index]. *)

val last_gate : sink -> int
(** Gate index of the last emitted snapshot; [-1] before the first. *)

val snapshots : sink -> snapshot list
(** In emission order. *)

val length : sink -> int
val dropped : sink -> int

(** {1 JSONL sidecar} *)

val schema : string
(** ["ddsim-profile"]. *)

val version : int
(** Current sidecar schema version (1). *)

val jsonl : ?meta:(string * string) list -> sink -> string
(** A {!Jsonl} document: header counts [every]/[snapshots]/[dropped],
    one line per snapshot. *)

val bulge : ?factor:float -> ?min_nodes:int -> int array -> int option
(** [bulge counts] — the worst "level bulge" in a per-level node-count
    array (index = level), if any: a level whose count exceeds [factor]
    (default [4.0]) times the median count and is at least [min_nodes]
    (default [16]).  A bulge is the structural signature of a bad
    variable order; the engine's adaptive reorder policy uses this as its
    sifting trigger. *)

type run = {
  run_meta : (string * string) list;
  run_every : int;
  run_snapshots : snapshot list;
}

val parse_jsonl : string -> run
(** Reads a {!Jsonl} document of this {!schema} and {!version} only.
    Raises [Failure] with a ["profile:LINE:"]-located message on
    malformed JSON, a missing or foreign [schema], another [version], or
    a missing or mismatched checksum trailer. *)
