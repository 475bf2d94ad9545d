(** The DD simulation engine — the paper's primary contribution.

    An engine owns a DD package instance ({!Dd.Context.t}), the current
    state vector (as a vector DD) and a statistics record.  {!run} simulates
    a circuit under a {!Strategy.t}; with [~use_repeating:true], [Repeat]
    blocks are combined into one matrix once and re-applied (the paper's
    DD-repeating strategy).  Directly constructed unitaries (DD-construct)
    are applied through {!apply_matrix}.

    A {!Guard.t} passed to {!run} turns the engine into a resource-governed
    runtime: budgets are checked between multiplications, over-budget
    combination windows degrade gracefully to sequential application, and
    budget exhaustion aborts with a structured {!Error.Error} instead of
    dying arbitrarily.  Together with the checkpoint hooks ([?on_checkpoint],
    [?start_gate], {!set_rng}) this supports exact resumption of
    interrupted runs — see {!Checkpoint}. *)

type t

val create : ?seed:int -> ?context:Dd.Context.t -> int -> t
(** [create n] — an [n]-qubit engine in state [|0...0>].  [seed] initialises
    the measurement RNG (default [0xDD]), which is built on its first use;
    [context] shares an existing DD package (default: a fresh one). *)

val context : t -> Dd.Context.t
val qubits : t -> int
val stats : t -> Sim_stats.t
val rng : t -> Random.State.t

val set_rng : t -> Random.State.t -> unit
(** Replace the measurement RNG (checkpoint restoration). *)

val state : t -> Dd.Vdd.edge
(** Current state vector. *)

val set_state : t -> Dd.Vdd.edge -> unit
(** Replace the state (e.g. with a custom initial state).  The edge must
    have the engine's height, or {!Error.Error} ([Width_mismatch]) is
    raised, and its root node must be resident in the engine's context
    (built there and not collected since), or {!Error.Error}
    ([Invalid_parameter]) is raised; either way the engine keeps its
    state.  The residency check is one unique-table probe. *)

val set_fused_apply : t -> bool -> unit
(** Enable/disable the structured-apply fast path (default: enabled).
    When disabled, every gate goes through the explicit gate DD and the
    generic [Mdd.apply] — the A/B switch behind [--no-fused-apply]. *)

val fused_apply : t -> bool

val set_domains : t -> int -> unit
(** The engine runs on one domain: [set_domains e 1] is accepted and
    changes nothing; any other count raises {!Error.Error}
    ([Invalid_parameter]). *)

val set_track_peaks : t -> bool -> unit
(** When enabled, {!Sim_stats.t.peak_state_nodes} and [peak_matrix_nodes]
    are maintained (costs a DD traversal per multiplication; off by
    default).  An attached enabled trace implies peak tracking. *)

val set_trace : t -> Obs.Trace.t -> unit
(** Attach an event sink to the engine *and* its DD context: gate
    applications, multiplications, window flushes, fallbacks,
    renormalizations, checkpoints, measurements and garbage collections
    are recorded as typed {!Obs.Trace} events.  The default is
    {!Obs.Trace.null} — disabled, and every instrumentation site reduces
    to one flag check.  Pass [Obs.Trace.null] to detach. *)

val trace : t -> Obs.Trace.t

val set_profile : t -> Obs.Dd_profile.sink -> unit
(** Attach a structural-profile sink: {!run} snapshots the state DD
    ({!Dd.Profile.vector} — per-level node/edge counts, weight
    histograms, sharing, identity fraction) whenever the sink's gate
    cadence is due and the state is an exact gate prefix, plus once at
    the end of the run.  The default is {!Obs.Dd_profile.null} —
    disabled, and the emission site reduces to one cadence probe with
    zero allocation.  Pass {!Obs.Dd_profile.null} to detach. *)

val profile : t -> Obs.Dd_profile.sink

val set_ledger : t -> Obs.Ledger.t -> unit
(** Attach a strategy cost ledger: {!run} opens one {!Obs.Ledger.entry}
    per combination window (and per sequential/fast-path stretch between
    windows) and attributes build seconds, apply seconds, matrix-DD
    peaks, memo-table traffic and end-of-window memory gauges to it.
    The default is {!Obs.Ledger.null} — disabled, and every recording
    site reduces to one flag check with zero allocation.  Pass
    {!Obs.Ledger.null} to detach. *)

val ledger : t -> Obs.Ledger.t

val set_audit : t -> ?tolerance:float -> int -> unit
(** [set_audit engine k] arms the invariant auditor ({!Dd.Audit}) at a
    cadence of one pass per [k] applied gates ([0] disarms — the
    default, in which case the per-gate probe is a single load and
    branch with zero allocation).  [tolerance] (default [1e-6]) bounds
    the acceptable drift of the recomputed state norm from 1.

    A due pass re-derives canonicity, norm and table invariants from the
    live structures and climbs a recovery ladder on violation: stale
    table entries flush the compute caches, canonicity faults re-intern
    the state through a canonical rebuild, and norm drift is
    renormalised.  Violations surviving a re-check raise {!Error.Error}
    ([Audit_failure]) naming each fault site; the run should then be
    resumed from its last good checkpoint. *)

val audit_every : t -> int
(** Current auditor cadence; [0] when disarmed. *)

val audit_due : t -> gate:int -> bool
(** The cadence probe {!run} evaluates after each state update —
    exposed so the test suite can assert its zero-allocation claim. *)

val audit_now : t -> int
(** Run one auditor pass immediately (outside any run), returning the
    number of violations found before recovery.  Raises {!Error.Error}
    ([Audit_failure]) when violations survive the recovery ladder. *)

(** {1 Dynamic variable reordering}

    The engine owns the policy behind [--reorder]: the state DD's
    level<->qubit order ({!Dd.Order}) may be changed mid-run — by
    sifting ({!Dd.Reorder.sift}) or an explicit target order — while
    circuits keep addressing qubits by their original indices (gate
    application translates through the context's order). *)

type reorder_policy =
  | Reorder_off  (** never reorder (the default) *)
  | Reorder_once
      (** reorder at most once: the first level bulge triggers one
          sifting pass (or {!set_order} counts as the one pass) *)
  | Reorder_adaptive
      (** probe for level bulges at the configured cadence and sift
          whenever one appears *)

val set_reorder : t -> ?bulge_factor:float -> ?every:int -> reorder_policy -> unit
(** Arm the reordering policy.  [bulge_factor] (default [4.0], must be
    [> 1]) is the multiple of the median per-level node count beyond
    which a level counts as a bulge ({!Obs.Dd_profile.bulge});
    [every] (default [64], must be [>= 1]) is the minimum number of
    applied gates between bulge probes (each probe walks the state DD,
    so it must not run per gate). *)

val reorder_policy : t -> reorder_policy

val reorder_now :
  ?max_growth:float -> ?max_passes:int -> t -> Dd.Reorder.stats
(** Run one sifting pass over the live state immediately, updating the
    context's order, the state edge and the reorder statistics
    counters.  Parameters as {!Dd.Reorder.sift}. *)

val set_order : t -> Dd.Order.t -> int
(** Permute the live state to an explicit target order (the [--order]
    flag) via adjacent swaps; returns the number of swaps applied.
    Counts as a reordering pass and satisfies the [Reorder_once]
    policy.  Raises {!Error.Error} ([Invalid_parameter]) when the
    order's width differs from the engine's. *)

val gate_dd : t -> Gate.t -> Dd.Mdd.edge
(** Build the matrix DD of one elementary gate on this engine's width. *)

val apply_gate : t -> Gate.t -> unit
(** One matrix-vector multiplication (the Eq. 1 step). *)

val apply_matrix : t -> Dd.Mdd.edge -> unit
(** Multiply an arbitrary (combined or directly constructed) matrix DD onto
    the state. *)

val combine : t -> Gate.t list -> Dd.Mdd.edge
(** Product of a gate sequence as one matrix DD (in application order:
    [combine e [g1; g2]] is [M_g2 x M_g1]), via matrix-matrix
    multiplications (the Eq. 2 step). *)

val run :
  ?strategy:Strategy.t ->
  ?use_repeating:bool ->
  ?guard:Guard.t ->
  ?checkpoint_every:int ->
  ?on_checkpoint:(gate_index:int -> unit) ->
  ?start_gate:int ->
  t ->
  Circuit.t ->
  unit
(** Simulate a circuit.  [strategy] defaults to [Sequential];
    [use_repeating] (default false) applies the DD-repeating treatment to
    [Repeat] blocks.  Raises {!Error.Error} ([Width_mismatch]) when the
    circuit's width differs from the engine's.

    [guard] (default {!Guard.none}, in which case every check below
    compiles away to nothing on the hot path):
    - [max_matrix_nodes]: a combination window whose partial product
      exceeds the budget is flushed and the window's remaining gates are
      applied sequentially (counted in {!Sim_stats.t.fallbacks}) — the run
      completes with the exact same state, just less combination.
    - [gc_high_water]: when the package's live node count exceeds the mark,
      {!Dd.Context.collect} runs automatically (counted in [auto_gcs]).
    - [max_live_nodes]: exceeding this budget triggers one last-ditch
      collection, then aborts with [Budget_exhausted Live_nodes].
    - [deadline]: wall-clock seconds from the start of [run]; exceeding it
      aborts with [Budget_exhausted Deadline].  A deadline of [0.] aborts
      before the first gate.
    - [norm_tolerance]: after each state update, if [| ||state|| - 1 |]
      exceeds the tolerance the state is renormalised (counted in
      [renormalizations]); if the norm has degenerated to zero or a
      non-finite value, aborts with [Renormalization_failed].

    [on_checkpoint] is invoked (with the number of gates whose effect is in
    the state) at window boundaries every [checkpoint_every] applied gates
    (default 1024), once more at the end of the run, and — crucially —
    immediately before any structured abort, so an interrupted run can be
    resumed from the last consistent state.  The callback should snapshot
    the engine (see {!Checkpoint.save}); [checkpoints_written] already
    counts the checkpoint it writes.

    [start_gate] (default 0) skips that many leading gates (in application
    order, as {!Circuit.flatten} orders them): the engine's state is
    assumed to already contain their effect.  Used to resume from a
    checkpoint. *)

val amplitude : t -> int -> Dd_complex.Cnum.t
val probability_one : t -> qubit:int -> float
val probabilities : t -> float array
(** Dense distribution; small engines only. *)

val state_node_count : t -> int
(** DD size of the current state — the quantity plotted in Fig. 5. *)

val measure_qubit : t -> qubit:int -> bool
(** Measure one qubit, collapse the state. *)

val measure_all : t -> int
(** Measure every qubit (collapses to a basis state); returns the index. *)

val sample : t -> int
(** Sample a basis index without collapsing. *)

val fidelity_dense : t -> Dd_complex.Cnum.t array -> float
(** [|<dense|state>|^2] against a dense reference vector (tests). *)

val collect_garbage : t -> int * int
(** Drop every DD node not reachable from the current state from the
    package's unique tables (clearing the compute caches).  Use between
    phases of long simulations to bound memory.  Returns the numbers of
    vector and matrix nodes reclaimed. *)
