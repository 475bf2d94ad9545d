(** Checkpoint / resume for simulation runs.

    A checkpoint is a snapshot of everything {!Engine.run} needs to
    continue exactly where it stopped: the state vector DD, the number of
    gates already applied, the combination strategy, the variable order,
    the measurement RNG state and the statistics counters.  Because
    loading re-canonicalises the DD, a checkpoint written from one
    context can be restored into a fresh one — the normal case after the
    original process died.

    The file is an {!Obs.Jsonl} document (schema [ddsim-checkpoint],
    version 9) holding one record:

    {v
{"qubits":N,"gate_index":G,"strategy":"k:4","order":"identity",
 "rng":"<hex>","stats":{"mat_vec_mults":12,...},"state":"ddvec ..."}
    v}

    [rng] is the Marshal snapshot of the RNG in hex; [stats] has one key
    per {!Sim_stats.fields} entry (floats written with [%.17g], so they
    read back bit for bit); [state] is {!Dd.Serialize.vector_to_string}'s
    text as one JSON string.

    Typical wiring:
    {[
      (* producer: snapshot at every checkpoint boundary *)
      Engine.run engine circuit ~strategy
        ~guard ~checkpoint_every:256
        ~on_checkpoint:(fun ~gate_index ->
            Checkpoint.save engine ~strategy ~gate_index ~path);

      (* consumer: resume after an interruption *)
      let cp = Checkpoint.load ctx ~path in
      let start_gate = Checkpoint.restore engine cp in
      Engine.run engine circuit ~strategy:cp.strategy ~start_gate
    ]} *)

type t = {
  qubits : int;
  gate_index : int;  (** gates (application order) reflected in [state] *)
  strategy : Strategy.t;
  order : Dd.Order.t;
      (** the live level<->qubit variable order the state DD was built
          under *)
  context : Dd.Context.t;
      (** the context whose complex table holds [state]'s weights *)
  state : Dd.Vdd.edge;
  rng : Random.State.t;
  stats : Sim_stats.t;
}

val snapshot : Engine.t -> strategy:Strategy.t -> gate_index:int -> t
(** Capture the engine's current state (the RNG and stats are copied, so
    the snapshot is unaffected by further simulation). *)

val schema : string
(** ["ddsim-checkpoint"] *)

val is_legacy : string -> bool
(** The text opens with a pre-v9 plain-text header
    (["ddsim-checkpoint N"]), which {!of_string} refuses by version. *)

val to_string : t -> string
(** The whole document, checksum trailer included. *)

val of_string : Dd.Context.t -> ?source:string -> string -> t
(** Parse a checkpoint, re-canonicalising the state DD into [context].
    Raises {!Error.Error} ([Invalid_checkpoint]) on any malformed input,
    with the {!Obs.Jsonl} message (["checkpoint:LINE: ..."]) when the
    document is at fault; [source] names the origin in the error
    (default ["<string>"]).  A [stats] counter the document lacks reads
    as [0].  A pre-v9 plain-text checkpoint is refused by its
    ["ddsim-checkpoint N"] header, with a message saying to re-run. *)

val save : Engine.t -> strategy:Strategy.t -> gate_index:int -> path:string -> unit
(** {!snapshot} then write to [path] crash-safely (write-to-temp, fsync,
    atomic rename — {!Obs.Safe_io}), rotating the previous generation to
    [path ^ ".prev"] first.  A crash during saving never corrupts an
    existing checkpoint, and a latest file corrupted at rest still
    leaves the previous generation as a resume point. *)

val load : Dd.Context.t -> path:string -> t
(** Read and parse [path].  Raises {!Error.Error} ([Invalid_checkpoint]) —
    also for I/O failures, a missing or mismatched checksum trailer, and
    files in an older format version (re-run to regenerate them). *)

type generation = Current | Previous

val load_latest : Dd.Context.t -> path:string -> t * generation
(** [load path]; if that fails with [Invalid_checkpoint], fall back to
    the rotated [path ^ ".prev"] generation, reporting which one was
    restored.  When both generations are unreadable, raises
    [Invalid_checkpoint] naming *each* file with its own failure reason
    — not a generic fallback message. *)

val restore : Engine.t -> t -> int
(** Install the checkpoint's state, variable order, RNG and statistics
    into the engine and return its [gate_index] — the value to pass as
    [?start_gate] to {!Engine.run}.  Raises {!Error.Error}
    ([Width_mismatch]) when the checkpoint's width differs from the
    engine's, and ([Invalid_checkpoint]) when its [context] is not the
    engine's: load a checkpoint with [Engine.context engine] to restore
    it there.  Neither error changes the engine. *)
