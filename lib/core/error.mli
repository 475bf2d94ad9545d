(** The unified error layer of the simulation engine.

    Replaces the ad-hoc [failwith]/[Invalid_argument] raises on the
    engine's hot paths with one structured exception carrying enough
    context to act on a failure: which budget was breached, at which gate
    index, under which strategy, and how large the DDs were at that
    moment.  Callers can pattern-match to decide between resuming from a
    checkpoint, retrying with a different strategy, or surfacing the
    error. *)

type budget_kind =
  | Live_nodes  (** the {!Guard.t.max_live_nodes} memory budget *)
  | Matrix_nodes  (** the {!Guard.t.max_matrix_nodes} budget *)
  | Deadline  (** the {!Guard.t.deadline} wall-clock budget *)

type run_site = {
  gate_index : int;
      (** number of gates whose effect is in the state when the error was
          raised — also the resume point of the last usable checkpoint *)
  strategy : Strategy.t;
  state_nodes : int;  (** DD size of the state at the failure site *)
  matrix_nodes : int;
      (** DD size of the pending combined matrix, [0] when none *)
}

type t =
  | Budget_exhausted of {
      kind : budget_kind;
      limit : float;
      actual : float;
      site : run_site;
    }  (** A {!Guard.t} budget was breached and no fallback applied. *)
  | Renormalization_failed of { norm2 : float; site : run_site }
      (** The state norm drifted beyond tolerance and could not be
          renormalised (zero or non-finite squared norm). *)
  | Invalid_checkpoint of { source : string; message : string }
      (** A checkpoint file could not be parsed or does not match the
          engine it is being restored into. *)
  | Width_mismatch of { what : string; expected : int; actual : int }
      (** A circuit or state of the wrong qubit count was given to an
          engine. *)
  | Invalid_parameter of { what : string; message : string }
      (** A run-configuration value (qubit count, strategy parameter,
          checkpoint interval, resume point) is out of its domain.  These
          arrive from user input — CLI flags, config — so they are
          structured errors rather than assertions. *)
  | Audit_failure of { violations : string list; site : run_site }
      (** The invariant auditor ({!Dd.Audit}, [--audit-every]) found
          violations that survived the full recovery ladder
          (cache flush, canonical rebuild, renormalisation).  Each
          violation string names its fault site; the run state cannot be
          trusted past [site.gate_index] — resume from the last good
          checkpoint. *)

exception Error of t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val raise_error : t -> 'a
(** [raise_error e] raises {!Error}. *)

val invalid_parameter : what:string -> string -> 'a
(** [invalid_parameter ~what message] raises {!Error} with
    [Invalid_parameter]. *)
