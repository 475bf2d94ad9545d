(** Per-window strategy cost ledger — the attribution layer behind
    [--ledger] and [ddsim explain].

    The paper's trade-off (combine k gates into one matrix DD, paying
    k-1 matrix-matrix products to save k-1 matrix-vector applications)
    is invisible in aggregate statistics: [Sim_stats] says how many
    multiplications ran, not which window paid for them.  A ledger
    entry is recorded for every combination window and for every
    sequential / fast-path stretch between windows, attributing to that
    span of the circuit:

    - its strategy ([mat_vec], [mat_mat k], or [fallback] when a guard
      budget degraded the window to sequential application),
    - build seconds (gate-DD construction and matrix-matrix products)
      vs apply seconds (matrix-vector application onto the state),
    - the peak matrix-DD node count the window materialised,
    - state-DD node counts before and after,
    - the compute-table hit/miss traffic of its primary memo tables,
    - memory gauges at commit time: OCaml heap live words
      ([Gc.quick_stat]) and the DD package's estimated table residency
      bytes.

    Like every observability layer here, the disabled sink is free: the
    engine guards each recording site behind {!is_on} (one load, one
    branch, zero allocation — asserted by the test suite), and a run
    without a ledger is bitwise identical in statistics. *)

type strategy =
  | Mat_vec  (** sequential / fast-path stretch between windows *)
  | Mat_mat of int  (** combination window of the given k *)
  | Fallback
      (** window degraded to sequential by a guard budget; the entry's
          [detail] names the budget that tripped *)

type entry = {
  index : int;  (** commit order, 0-based *)
  strategy : strategy;
  gate_start : int;  (** first gate index covered (inclusive) *)
  gate_end : int;  (** one past the last gate covered *)
  gates : int;  (** gates attributed to this entry *)
  build_seconds : float;
      (** gate-DD construction + matrix-matrix product time; for
          combination windows also carries the window's dispatch slack
          (wall span minus kernel spans), so build + apply across all
          entries tracks the run's wall clock *)
  apply_seconds : float;
      (** matrix-vector application time; sequential stretches carry
          their dispatch slack here *)
  peak_matrix_nodes : int;
      (** largest matrix DD this entry materialised; [-1] when the
          stretch never built one (pure fast-path applications) *)
  state_nodes_before : int;
  state_nodes_after : int;
  hits : int;  (** primary memo-table hits over the entry *)
  misses : int;
  heap_live_words : int;  (** [Gc.quick_stat].live_words at commit *)
  table_bytes : int;
      (** estimated unique-/compute-table residency bytes at commit *)
  detail : string;  (** tripped budget for [Fallback]; free-form else *)
}

type t
(** A ledger sink with one open accumulator entry at a time.  The
    engine opens an entry at a window or stretch boundary, accumulates
    timings / traffic / gate counts into it, and commits it with the
    end-of-window memory gauges. *)

val null : t
(** Disabled sink: never records, cannot be enabled.  The default on
    every engine. *)

val create : ?max_entries:int -> ?stretch:int -> unit -> t
(** A live sink.  [max_entries] (default 65536) bounds retention —
    later commits are counted in {!dropped} instead of retained.
    [stretch] (default 256, must be >= 1) caps how many gates one
    sequential entry may cover before {!rotate_due} asks the engine to
    commit and start a fresh one. *)

val is_on : t -> bool
(** The engine's per-site probe: one load.  Every other call below is
    made only behind it. *)

val active : t -> bool
(** An entry is currently open. *)

val open_entry : t -> seq:bool -> gate:int -> state_nodes:int -> unit
(** Open the accumulator ([seq] marks a sequential stretch, otherwise a
    combination window).  No-op when disabled; must not be called with
    an entry already open (commit first). *)

val add_gates : t -> int -> unit
val add_build : t -> float -> unit
val add_apply : t -> float -> unit
val add_traffic : t -> hits:int -> misses:int -> unit

val note_matrix : t -> int -> unit
(** Fold a materialised matrix DD's node count into the entry peak. *)

val degrade : t -> detail:string -> unit
(** Mark the open window entry as a guard fallback, recording the
    budget that tripped. *)

val note_detail : t -> string -> unit
(** Attach a free-form detail (e.g. repeat-block annotation). *)

val set_window_k : t -> int -> unit
(** Override the k recorded for a [Mat_mat] entry (repeat blocks apply
    one combined k-gate matrix many times, so gates covered <> k). *)

val rotate_due : t -> bool
(** True when the open entry is a sequential stretch that has reached
    the [stretch] cap and should be committed. *)

val commit :
  t ->
  gate_end:int ->
  state_nodes:int ->
  heap_words:int ->
  table_bytes:int ->
  unit
(** Close the open entry.  The wall-clock span since {!open_entry} not
    already attributed by [add_build] / [add_apply] is folded into
    build (combination windows) or apply (sequential stretches).
    No-op when disabled or no entry is open. *)

val length : t -> int
(** Retained committed entries; commits past [max_entries] are counted
    in {!dropped} instead. *)

val dropped : t -> int
val entries : t -> entry list
(** Chronological. *)

val total_build_seconds : t -> float
(** Build seconds over every committed entry, never reset — survives
    entry retention limits.  (The open accumulator is not included.) *)

val total_apply_seconds : t -> float

(* -- JSONL sidecar ---------------------------------------------------- *)

val schema : string
(** ["ddsim-ledger"] *)

val version : int
(** 1 *)

type run = {
  run_meta : (string * string) list;
  run_dropped : int;
  run_entries : entry list;
}

val jsonl : ?meta:(string * string) list -> t -> string
(** A {!Jsonl} document: header counts [entries]/[dropped], one JSON
    object per entry, checksum trailer.  Write through
    {!Safe_io.write_file}. *)

val parse_jsonl : string -> run
(** Reads a {!Jsonl} document of this {!schema} and {!version} only.
    Raises [Failure] with a ["ledger:LINE:"]-located message on
    malformed input, including a missing or mismatched checksum
    trailer. *)

(* -- aggregation ------------------------------------------------------- *)

type totals = {
  mv_entries : int;
  mv_gates : int;
  mv_build : float;
  mv_apply : float;
  mm_entries : int;
  mm_gates : int;
  mm_build : float;
  mm_apply : float;
  fb_entries : int;
  fb_gates : int;
  fb_build : float;
  fb_apply : float;
  peak_matrix : int;
  peak_heap_words : int;
  peak_table_bytes : int;
}

val totals : entry list -> totals

val break_even : entry list -> int option
(** Smallest window size k whose mat-mat per-gate cost (build + apply,
    amortised over the window's gates) beats the ledger's observed
    mat-vec per-gate cost.  [None] when the ledger has no mat-vec
    baseline or no window reaches break-even. *)

val explain : ?top:int -> run -> string
(** The paper-style comparison rendered for the terminal: per-strategy
    totals (mat-vec vs mat-mat time), amortization per window size,
    the observed break-even k, the [top] (default 5) most expensive
    windows with their node bulges, and peak memory gauges.  When the
    run's meta carries a [wall_seconds] entry, also reports what
    fraction of the wall clock the ledger attributes. *)
