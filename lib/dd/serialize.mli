(** Plain-text (de)serialisation of decision diagrams.

    The format lists nodes bottom-up (children before parents), one per
    line, with local ids ([0] is the terminal); loading re-canonicalises
    every node through the target context's unique tables, so a DD written
    from one context can be read into another (e.g. caching directly
    constructed oracles across runs). *)

val vector_to_string : Context.t -> Vdd.edge -> string
(** The edge's weights are read from the context's complex table and
    written with [%.17g], so they read back bit for bit. *)

val vector_of_string : Context.t -> string -> Vdd.edge
(** Raises {!Dd_error.Error} ([Malformed_dd]) on malformed input. *)

val matrix_to_string : Context.t -> Mdd.edge -> string
val matrix_of_string : Context.t -> string -> Mdd.edge

val write_file : string -> string -> unit
(** [write_file path contents] — plain helper for the above. *)

val read_file : string -> string
