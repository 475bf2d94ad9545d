(** DD invariant auditor.

    Everything the paper measures — node counts, mat-vec/mat-mat costs,
    sharing — is only meaningful while the package's invariants actually
    hold: reachable nodes are unique-table representatives, child
    weights obey the hash-cons pivot rule, the state norm is conserved,
    and no compute-table entry resolves to a freed node.  The auditor
    re-derives those invariants from the live structures (trusting no
    cache: norms are recomputed, not read from [ctx.norm]) and reports
    every violation with its level/node evidence.

    {!Dd_sim.Engine} exposes the auditor as a [--audit-every] cadence
    with a recovery ladder; see [docs/robustness.md]. *)

type violation =
  | Unrepresented_node of { dd : string; level : int; id : int }
      (** a reachable node is not its unique table's representative *)
  | Pivot_rule of { dd : string; level : int; id : int; detail : string }
      (** child weights violate the normalisation rule: some child weight
          must be exactly one (the pivot's quotient by itself), all child
          magnitudes at most one *)
  | Zero_stub of { dd : string; level : int; id : int }
      (** a zero-weight edge targets a non-terminal node *)
  | Uninterned_weight of { dd : string; level : int; id : int }
      (** an edge weight is not a tag of the context's complex table: it
          lies outside [[0, Ctable.size)] *)
  | Level_skew of { dd : string; level : int; id : int }
      (** a non-zero child edge skips a level *)
  | Norm_drift of { norm : float; tolerance : float }
      (** the recomputed state norm left the tolerance band around 1 *)
  | Stale_entry of { table : string; k1 : int; k2 : int; k3 : int }
      (** a compute-table value resolves to a node no longer resident *)
  | Order_skew of { detail : string }
      (** the context's level<->qubit arrays are not mutually inverse
          permutations — qubit-facing translations would read the wrong
          wires *)

type violation_class = Canonicity | Norm | Table

val class_of : violation -> violation_class
val to_string : violation -> string

val check_vector :
  ?norm_tol:float -> Context.t -> Types.vedge -> violation list
(** Walk every reachable node of a vector DD and verify the structural
    invariants; with [norm_tol], additionally recompute the norm (no
    caches) and flag drift beyond the tolerance. *)

val check_order : Context.t -> violation list
(** Verify the context's live {!Order.t} is self-consistent (mutually
    inverse permutations).  Cheap — O(n) in the register width. *)

val check_tables : Context.t -> violation list
(** Unique-/compute-table consistency: every occupied entry of every
    edge-valued compute table must resolve to a resident node — a stale
    generation entry surviving a sweep is exactly the corruption that
    would silently resurrect freed nodes on the next hit. *)

val norm2_uncached : Context.t -> Types.vedge -> float
(** Squared norm recomputed from the raw structure, bypassing the
    context's memoised norm table (which could itself be corrupt); NaN
    when a weight is not a tag of the context's table. *)

val rebuild_vector : Context.t -> Types.vedge -> Types.vedge
(** Canonical rebuild: re-intern the whole DD bottom-up through
    {!Vdd.make}, restoring normalisation and unique-table residency.
    Amplitudes are preserved exactly when the weights were canonical;
    weight corruption is re-normalised into the edge weights (detectable
    afterwards as norm drift).  A DD holding a weight that is not a tag
    of the context's table is returned unchanged: there is no value to
    rebuild from. *)
