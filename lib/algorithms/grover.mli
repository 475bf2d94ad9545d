(** Grover's database search (paper Section IV-B, Fig. 6): the Grover
    iteration (oracle + diffusion) is emitted as a [Circuit.Repeat] block so
    the engine's DD-repeating treatment can combine it once and re-apply
    it. *)

val iterations : int -> int
(** Optimal iteration count [round(pi/4 * sqrt(2^n))] for one marked item. *)

val oracle_gates : n:int -> marked:int -> Gate.t list
(** Phase oracle flipping the sign of [|marked>]: one multi-controlled Z
    with polarities matching the bits of [marked]. *)

val diffusion_gates : n:int -> Gate.t list
(** Inversion about the mean. *)

val circuit : ?iterations:int -> n:int -> marked:int -> unit -> Circuit.t
(** Full search circuit: uniform superposition, then a [Repeat] block of
    Grover iterations (default count {!iterations}). *)

val success_probability : Dd_sim.Engine.t -> marked:int -> float
(** Probability of measuring the marked element in the engine's current
    state. *)

(** {2 DD-construct extension}

    The paper applies its DD-construct strategy only to Shor's oracle; the
    same idea transfers to Grover: the phase oracle is a diagonal matrix
    built directly with {!Dd.Mdd.of_diagonal}, skipping the multi-controlled
    gate entirely. *)

val oracle_dd : Dd.Context.t -> n:int -> marked:int -> Dd.Mdd.edge
(** The oracle [diag(1, ..., -1 at marked, ..., 1)] built directly. *)

val run_construct :
  ?iterations:int -> n:int -> marked:int -> unit -> Dd_sim.Engine.t
(** Grover with the directly-constructed iteration operator: H layer, then
    [iterations] applications of one full Grover iteration (oracle then
    diffusion) combined into a single matrix. *)
