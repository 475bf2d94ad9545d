(** Fixed-capacity, lossy memoisation tables for the DD kernels.

    A table is a direct-mapped array of [2^bits] slots addressed by a hash
    of the packed integer key [(k1, k2, k3)].  A colliding {!store}
    overwrites the previous entry (lossy — memoisation is purely an
    optimisation, every recursion is structural); a {!find} compares the
    full key, so a collision can never return the value of a different
    key, it only reads as a miss.  {!sweep} drops the entries a garbage
    collection invalidated and keeps the rest warm.

    The slots are allocated by the first {!store}: a table that is never
    stored into costs a few words, answers every {!find} with a miss and
    still reports [2^bits] as its {!capacity}. *)

type 'v t

type stats = {
  table : string;
  capacity : int;
  entries : int;
  lookups : int;
  hits : int;
  misses : int;  (** always [lookups - hits] *)
  stores : int;
  evictions : int;  (** live entries overwritten by a colliding store *)
  invalidated : int;  (** entries dropped by {!sweep} *)
  generation : int;  (** number of sweeps so far *)
}

val create : name:string -> bits:int -> dummy:'v -> 'v t
(** A table of [2^bits] slots ([bits] in [1, 28]), allocated on the
    first {!store}; [dummy] fills unoccupied value slots and is never
    returned. *)

val find : 'v t -> k1:int -> k2:int -> k3:int -> bool
(** Is the key stored?  On a hit, {!found} reads its value.  Allocates
    nothing:

    {[
      if Compute_table.find t ~k1 ~k2 ~k3 then Compute_table.found t
      else (let v = compute () in Compute_table.store t ~k1 ~k2 ~k3 v; v)
    ]} *)

val found : 'v t -> 'v
(** The value of the last {!find} that hit.  Read it before the next
    {!store} into the table. *)

val store : 'v t -> k1:int -> k2:int -> k3:int -> 'v -> unit

val clear : 'v t -> unit
(** Drop every entry.  Counters are kept. *)

val iter : (int -> int -> int -> 'v -> unit) -> 'v t -> unit
(** [iter f t] applies [f k1 k2 k3 v] to every occupied entry — the
    auditor's table-consistency walk. *)

val sweep : 'v t -> keep:(int -> int -> int -> 'v -> bool) -> int
(** One garbage collection over the table: bump the generation, keep
    every entry for which [keep k1 k2 k3 v] holds, drop the rest.  Returns
    the number of entries dropped. *)

val capacity : 'v t -> int
(** [2^bits], allocated or not. *)

val name : 'v t -> string
val length : 'v t -> int
val generation : 'v t -> int
(** Number of sweeps so far. *)

val hits : 'v t -> int
(** Running hit count — cheap accessor for per-operation deltas, so
    tracing need not build a full {!stats} record per op. *)

val lookups : 'v t -> int
val hit_rate : 'v t -> float
val stats : 'v t -> stats
val reset_counters : 'v t -> unit
val pp_stats : Format.formatter -> stats -> unit
