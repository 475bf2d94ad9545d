(** Artifact validation — the library behind [ddsim fsck].

    Every sidecar the toolchain writes (checkpoints, traces, structural
    profiles, strategy ledgers) is an {!Obs.Jsonl} document written
    crash-safely ({!Obs.Safe_io}) with a checksum trailer; [fsck] closes the
    loop by re-validating files at rest: the checksum, the schema, the
    full parse (checkpoints are reconstructed into a throwaway DD
    context), and cheap semantic invariants — gate indices must never
    go backwards, durations must be non-negative.

    A report never raises: every corruption mode is folded into
    [ok = false] with a human-readable detail naming the fault. *)

type report = {
  path : string;
  family : string;
      (** ["checkpoint"], ["trace"], ["profile"], ["ledger"],
          ["unknown"] *)
  ok : bool;
  detail : string;
      (** on success a one-line summary; on failure the located fault *)
}

val check_file : path:string -> report
(** Sniff the artifact family from the JSONL header's schema
    ({!Obs.Jsonl.schema_of}) and validate the whole file with that
    family's strict reader, so a sidecar without its checksum trailer
    fails.  A pre-v9 plain-text checkpoint is reported as a failed
    [checkpoint].  Unreadable or unrecognised files report
    [ok = false]. *)

val to_string : report -> string
(** ["PATH: OK family (detail)"] / ["PATH: FAIL family (detail)"]. *)
