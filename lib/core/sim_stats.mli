(** Instrumentation counters for a simulation run: how many matrix-vector
    and matrix-matrix multiplications were performed, (optionally) the
    peak DD sizes encountered — the quantities Section III of the paper
    reasons about — and the resilience events recorded by a guarded run
    (see {!Guard}). *)

type t = {
  mutable mat_vec_mults : int;
  mutable mat_mat_mults : int;
  mutable fast_path_applies : int;
      (** matrix-vector products served by the structured-apply kernel
          ({!Dd.Apply.apply}) — no gate DD was built *)
  mutable generic_applies : int;
      (** matrix-vector products that went through the generic
          [Mdd.apply] on an explicit matrix DD *)
  mutable gates_seen : int;
      (** circuit gates processed; under DD-repeating every applied
          repetition counts its gates, so the total matches the circuit's
          gate count whatever the strategy *)
  mutable combined_applications : int;
      (** matrix-vector products whose matrix combined >= 2 gates *)
  mutable peak_state_nodes : int;
  mutable peak_matrix_nodes : int;
  mutable fallbacks : int;
      (** combination windows abandoned because the partial product
          exceeded the guard's matrix budget; the remaining gates of each
          such window were applied sequentially *)
  mutable auto_gcs : int;
      (** automatic garbage collections triggered by the guard's
          high-water mark *)
  mutable renormalizations : int;
      (** norm-drift corrections applied by the guard *)
  mutable checkpoints_written : int;
  mutable gc_pause_seconds : float;
      (** wall-clock time spent inside [Dd.Context.collect], cumulative
          over the engine's automatic and explicit collections *)
  mutable gc_reclaimed_nodes : int;
      (** vector + matrix nodes reclaimed by those collections *)
  mutable wall_time_seconds : float;
      (** wall-clock time spent inside {!Engine.run}, cumulative across
          runs on the same engine; accumulated even when a guard budget
          aborts the run *)
  mutable trace_events_dropped : int;
      (** events the attached {!Obs.Trace} discarded after its buffer
          reached [max_events]; [0] when tracing is off *)
  mutable audits_run : int;
      (** invariant-auditor passes executed ([--audit-every]); [0] when
          auditing is off *)
  mutable audit_violations : int;
      (** total invariant violations the auditor detected (before
          recovery) *)
  mutable audit_repairs : int;
      (** audit passes whose violations were fully repaired by the
          recovery ladder *)
  mutable reorders_run : int;
      (** variable-reordering (sifting or explicit-order) passes executed
          by the engine's [--reorder] policy *)
  mutable reorder_swaps : int;
      (** adjacent-level swaps applied across all reordering passes *)
  mutable reorder_nodes_before : int;
      (** cumulative state-DD node count entering reordering passes *)
  mutable reorder_nodes_after : int;
      (** cumulative state-DD node count leaving reordering passes *)
  mutable domains : int;
      (** domain-pool size the run was configured with ([--domains]);
          [1] = sequential.  Persisted in checkpoints (format v7) so a
          resumed run keeps its pool size. *)
  mutable pool_batches : int;
      (** domain-pool scatter/gather sections completed; [0] when the run
          never fanned out.  The pool-utilization family
          ([pool_batches .. pool_section_seconds]) is absorbed from
          {!Domain_pool.stats} at quiescence, is inherently
          nondeterministic (scheduling-dependent), and is {e not}
          persisted in checkpoints. *)
  mutable pool_tasks : int;
      (** tasks executed across all crew members *)
  mutable pool_busy_seconds : float;
      (** summed per-crew-member time spent running tasks *)
  mutable pool_idle_seconds : float;
      (** [section_seconds * crew - busy]: crew capacity inside pool
          sections not spent on tasks (waiting on the cursor or on
          stragglers), clamped at 0 *)
  mutable pool_section_seconds : float;
      (** wall time spent inside pool sections, scatter to gather *)
  mutable ledger_entries : int;
      (** entries committed to the attached {!Obs.Ledger} ([--ledger]);
          [0] when no ledger is attached.  Observability-only, like the
          pool family: not persisted in checkpoints. *)
}

val create : unit -> t
val reset : t -> unit
val copy : t -> t

val assign : t -> t -> unit
(** [assign dst src] overwrites every counter of [dst] with [src]'s —
    used when restoring a checkpoint. *)

val pp : Format.formatter -> t -> unit
