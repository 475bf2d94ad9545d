(** Serializers for a recorded {!Trace}.

    Two machine formats plus a human summary:

    - {!jsonl}: a {!Jsonl} document (header with [schema]/[version]
      and run metadata, one event per line, checksum trailer).  This is
      the stable interchange format — {!Trace_report} and
      [ddsim report] consume it, and the [version] field is how schema
      changes stay detectable.
    - {!chrome}: a Chrome trace-event JSON document (one object with a
      [traceEvents] array) loadable in Perfetto / [chrome://tracing].
      Spans become "X" complete events, instants become "i" events;
      timestamps are microseconds as the format requires.
    - {!summary}: per-kind counts and total/mean durations for a quick
      terminal read. *)

val schema : string
(** ["ddsim-trace"]. *)

val version : int
(** JSONL schema version (2), the only one {!Trace_report.parse_jsonl}
    reads.  Events carry a [domain] field only when a worker lane
    (domain > 0) emitted them. *)

val kind_to_string : Trace.kind -> string
val kind_of_string : string -> Trace.kind option

val jsonl : ?meta:(string * string) list -> Trace.t -> string
(** [meta] lands in the header line under ["meta"] (e.g. algorithm,
    qubit count, strategy); the header counts are [events] and
    [dropped]. *)

val chrome : ?meta:(string * string) list -> Trace.t -> string

val summary : Trace.t -> string
