(** Crash-safe artifact writes and content checksums.

    Every sidecar the simulator produces (traces, profiles, checkpoints,
    metrics JSON, DOT, bench output) goes through {!write_file}:
    write-to-temp, flush, [fsync], close, atomic rename.  A crash or
    exception mid-write therefore never leaves a truncated or
    half-flushed artifact at the destination path — the old file (if
    any) survives intact.

    The JSONL sidecars ({!Jsonl}: traces, profiles, ledgers,
    checkpoints) additionally carry a checksum trailer ({!checksum},
    FNV-1a 64 in hex) covering every byte before the trailer line;
    [ddsim fsck] and the parsers verify it. *)

val checksum : string -> string
(** FNV-1a 64-bit hash of the text, as 16 lowercase hex digits. *)

val write_file : string -> string -> unit
(** [write_file path contents] — atomically replace [path] with
    [contents] via a [path ^ ".tmp"] sibling (same filesystem, so the
    rename is atomic), fsynced before the rename. *)

val jsonl_trailer : string -> string
(** [jsonl_trailer body] is the [{"checksum":"<hex>"}] line (newline
    terminated) covering [body]. *)

val split_jsonl_trailer : string -> string * string option
(** [split_jsonl_trailer text] separates a trailing checksum line from a
    JSONL document: [(body, Some hex)] when the last non-empty line is a
    [{"checksum":"..."}] object, [(text, None)] otherwise.  [body]
    retains its terminating newline, i.e. it is exactly the text the
    checksum was computed over. *)
