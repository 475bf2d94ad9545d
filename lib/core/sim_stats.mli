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
  mutable ledger_entries : int;
      (** entries committed to the attached {!Obs.Ledger} ([--ledger]);
          [0] when no ledger is attached *)
}

val create : unit -> t
(** Every counter at zero. *)

(** One counter of {!t}: its name (the key of a checkpoint's [stats]
    object and, prefixed with ["sim."], of {!Telemetry.snapshot}) and
    its accessors. *)
type field =
  | Int of string * (t -> int) * (t -> int -> unit)
  | Float of string * (t -> float) * (t -> float -> unit)

val fields : field list
(** Every counter of {!t}, once, in record order. *)

val copy : t -> t

val assign : t -> t -> unit
(** [assign dst src] overwrites every counter of [dst] with [src]'s —
    used when restoring a checkpoint. *)

val pp : Format.formatter -> t -> unit
