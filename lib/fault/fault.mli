(** Deterministic, seed-driven fault injection.

    The runtime carries no-op injection points ({!fire}) at the places a
    DD simulation can realistically be corrupted: weight interning, the
    lossy compute tables, garbage collection, node allocation, artifact
    I/O and the wall clock.  Disarmed — the default, and the only state
    production code ever runs in — a probe is one load of a global ref
    and one branch, nothing allocated.  Tests {!arm} a plan, run the
    scenario, and assert that the auditor / checksum layer detects the
    corruption or that the runtime recovers bitwise-correctly.

    The subsystem is deliberately global (like the GC alarm it emulates):
    hooks sit on hot paths shared by every context, and threading a
    handle through them would make the disabled path pay for the
    plumbing. *)

type point =
  | Weight_flip  (** flip a mantissa bit while interning an edge weight *)
  | Table_poison  (** a compute-table hit returns the dummy value *)
  | Table_skip_sweep
      (** GC skips the compute-table sweeps, leaving stale entries that
          resolve to freed nodes *)
  | Unique_drop
      (** GC drops one reachable node from a unique table, so a live DD
          node is no longer the unique-table representative *)
  | Forced_gc  (** force a garbage collection at an adversarial point *)
  | Alloc_fail  (** node allocation raises [Out_of_memory] *)
  | Io_truncate  (** a sidecar/checkpoint write drops its second half *)
  | Io_garble  (** a sidecar/checkpoint write flips one byte *)
  | Clock_skew  (** the wall clock reads an hour in the past *)

type trigger =
  | Always  (** fire on every probe *)
  | After of int
      (** fire exactly once, on the [n]-th probe of this point (1-based) *)
  | Probability of float  (** fire each probe with probability [p] *)

val arm : ?seed:int -> (point * trigger) list -> unit
(** Install a fault plan, replacing any previous one.  [seed] (default 0)
    drives the [Probability] triggers through a splitmix64 stream, so a
    seeded plan replays identically. *)

val disarm : unit -> unit
(** Remove the plan; every probe is a no-op again.  Tests must disarm in
    a [Fun.protect] finally so a failing assertion cannot leak faults
    into the next test. *)

val armed : unit -> bool

val fire : point -> bool
(** The injection probe.  Disarmed: one load, one branch, false.  Armed:
    true when the plan's trigger for [point] decides to fire. *)

val fired_count : point -> int
(** Number of times [point] actually fired under the current plan
    (0 when disarmed). *)

val flip_float : ?bit:int -> float -> float
(** Flip one mantissa bit of an IEEE double ([bit] 0–51, default 51 —
    the most significant, a ~25–50% relative error). *)

