(** The JSONL container every sidecar family shares (traces, structural
    profiles, strategy ledgers, checkpoints).

    A document is one header line, one JSON object per record, and a
    checksum trailer:

    {v
{"schema":"ddsim-<family>","version":N,<counts>,"meta":{...}}
<record>
...
{"checksum":"<16 hex digits>"}
    v}

    The header's [counts] are the family's integer fields (e.g.
    [events] and [dropped] for a trace); [meta] is a flat object of
    string pairs describing the run.  The trailer is the FNV-1a 64
    checksum ({!Safe_io.checksum}) of every byte before it.

    This module owns the format: the families only encode and decode
    their records. *)

val write :
  schema:string ->
  version:int ->
  counts:(string * int) list ->
  meta:(string * string) list ->
  string Seq.t ->
  string
(** [write ~schema ~version ~counts ~meta records] is the whole document:
    the header (fields in the order [schema], [version], [counts],
    [meta]), one line per record (each given without its newline), and
    the checksum trailer.  [records] is consumed once, one encoded
    record at a time.  Write the result through {!Safe_io.write_file}. *)

type 'a doc = {
  header : Json.t;  (** the parsed header line, for the family's counts *)
  meta : (string * string) list;  (** the header's string-valued [meta] *)
  records : 'a list;  (** in file order *)
}

val read :
  schema:string -> version:int -> record:(Json.t -> 'a) -> string -> 'a doc
(** Parse a document of exactly this [schema] and [version].  The
    trailer is required and must match the body's checksum, so a file
    cut at any point is rejected.  [record] decodes one record line and
    may raise [Failure].  Every error raises [Failure] located as
    ["<family>:LINE: ..."], where [<family>] is [schema] without its
    ["ddsim-"] prefix and [LINE] is 1-based. *)

val schema_of : string -> string option
(** The [schema] string of the document's header line (its first
    non-blank line), if that line is a JSON object carrying one. *)

val meta_json : (string * string) list -> string
(** A flat JSON object of string pairs, as written in the header's
    [meta]. *)

(** {1 Field readers}

    Missing or mistyped fields read as [default]. *)

val int : Json.t -> string -> default:int -> int
val num : Json.t -> string -> default:float -> float
val str : Json.t -> string -> default:string -> string
