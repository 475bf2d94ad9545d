(** Minimal JSON reader/writer for the sidecar formats ({!Jsonl}), the
    bench documents and the tools that read them.

    Deliberately tiny: the repository bakes no JSON dependency, and the
    only documents parsed are the ones this repository writes (stable,
    machine-generated).  The parser nevertheless accepts any well-formed
    JSON value — objects, arrays, strings with escapes, numbers, booleans,
    null — not only the shapes those writers emit. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> t
(** Raises [Failure] with a position-carrying message on malformed input
    or trailing garbage. *)

val member : t -> string -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_num : t -> float
(** Raises [Failure] when the value is not a [Num]. *)

val to_int : t -> int
val to_str : t -> string
val to_list : t -> t list

val escape : string -> string
(** JSON string-literal escaping (without the surrounding quotes). *)
