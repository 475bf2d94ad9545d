(** The level<->qubit indirection for dynamic variable reordering.

    DD nodes are indexed by a structural [level] (terminal at -1, root of
    an n-qubit state at n-1); an order says which {e qubit} each level
    represents.  The identity order — the state every {!Context.t} starts
    in — is a zero-width sentinel meaning "level k is qubit k" at any
    width, so code paths that never reorder pay nothing.

    Orders are immutable values; {!Context.set_order} installs one in a
    package instance, and {!Reorder} produces new ones by adjacent-level
    swaps. *)

type t = private { level_of_qubit : int array; qubit_of_level : int array }

val identity : t
(** "Level k is qubit k" at every width. *)

val is_identity : t -> bool

val size : t -> int
(** Width of the explicit permutation; [0] for {!identity}. *)

val level_of_qubit : t -> int -> int
(** Level hosting a qubit; qubits beyond {!size} map to themselves. *)

val qubit_of_level : t -> int -> int
(** Qubit hosted at a level; levels beyond {!size} map to themselves. *)

val of_qubit_of_level : int array -> t
(** Build from the level->qubit image ([image.(l)] is the qubit at level
    [l]).  Raises [Invalid_argument] unless the image is a permutation of
    [0 .. length - 1].  A literal identity collapses to {!identity}. *)

val is_valid : t -> bool
(** Both arrays are mutually inverse permutations of equal width — the
    invariant {!Audit.check_order} re-derives. *)

val swap_levels : t -> n:int -> int -> t
(** [swap_levels order ~n l] exchanges the qubits at levels [l] and
    [l + 1] of a width-[n] register (the order-map half of an adjacent
    swap).  Raises [Invalid_argument] when [l + 1 >= n]. *)

val equal : t -> t -> n:int -> bool
(** Same qubit at every level of a width-[n] register. *)

val to_string : t -> string
(** ["identity"], or the space-separated qubit-of-level image. *)

val of_string : string -> t
(** Inverse of {!to_string}; also accepts comma separators.  Raises
    [Invalid_argument] on malformed input. *)
