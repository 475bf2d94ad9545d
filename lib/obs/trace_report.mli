(** Offline analysis of a JSONL trace — the engine behind [ddsim report].

    Parses the stable JSONL format written by {!Trace_export.jsonl},
    rebuilds the per-gate state-DD node-count trajectory (the Fig. 3-style
    curve the paper uses to argue about intermediate DD sizes), and
    renders a terminal report: run metadata, per-kind phase breakdown,
    and an ASCII plot of the trajectory. *)

type run = {
  meta : (string * string) list;
  events : Trace.event list;  (** in file (= emission) order *)
  dropped : int;
}

val parse_jsonl : string -> run
(** Reads a {!Jsonl} document of schema [ddsim-trace], version
    {!Trace_export.version} only.  Raises [Failure] on malformed JSON, a
    foreign [schema], another [version], or a missing or mismatched
    checksum trailer.  Every message is located: ["trace:LINE: ..."]
    with the 1-based line the problem came from. *)

val trajectory : run -> (int * int) list
(** [(gate_index, state_nodes)] per gate, ascending by gate index.  For
    each gate the last event carrying a non-negative node count wins, so
    the value reflects the state after the gate fully landed. *)

val peak_state_nodes : run -> (int * int) option
(** [(gate_index, nodes)] of the trajectory maximum; [None] when the
    trace carries no node counts. *)

type phase = {
  kind : Trace.kind;
  count : int;
  total_seconds : float;
  mean_seconds : float;
  max_seconds : float;
}

val phases : run -> phase list
(** One entry per kind present in the trace, in declaration order. *)

val lane_phases : run -> (int * phase list) list
(** Per-domain phase breakdown, ascending by domain id.  A single-lane
    (sequential) trace yields exactly [[(0, phases run)]]. *)

val serial_fraction : run -> float option
(** Amdahl view: the fraction of the traced span spent {e outside}
    [pool_section] spans.  [None] when the trace carries no pool
    sections (sequential run). *)

val render : run -> string
(** The full human-readable report. *)
