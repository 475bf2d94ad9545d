(** Every counter family a live engine carries, as one flat list of named
    readings: the {!Sim_stats} counters ([sim.*], one per
    {!Sim_stats.fields} entry), per-compute-table hit/miss/eviction
    counters ([table.*], {!Dd.Context.table_stats}), node counts
    ([nodes.*]), memory gauges ([mem.*]) and DD garbage-collection
    statistics ([gc.*], {!Dd.Context.gc_stats}).  What [ddsim run
    --metrics] prints and [--stats-json] writes. *)

type value = Count of int | Value of float

type snapshot = (string * value) list
(** Sorted by name. *)

val snapshot : Engine.t -> snapshot
(** The engine's current readings. *)

val to_json : snapshot -> string
(** One JSON object keyed by name: counts as integers, values as
    numbers ([%.9g]). *)

val pp : Format.formatter -> snapshot -> unit
(** One ["name value"] line per reading. *)
