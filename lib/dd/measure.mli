(** Measurement on vector DDs: cached squared norms, single-qubit marginals,
    projective collapse, and full-register sampling.  Needed both for
    reading out results and for Beauregard-style circuits with intermediate
    measurements. *)

val norm2 : Context.t -> Vdd.edge -> float
(** Squared 2-norm of the represented vector (cached per node). *)

val probability_one : Context.t -> Vdd.edge -> qubit:int -> float
(** Probability that measuring [qubit] yields [1], normalised by the state's
    norm.  [qubit] is a qubit index, translated to its hosting level
    through the context's live {!Order.t} (as in {!collapse} and
    {!measure_qubit}); {!sample} likewise reports indices in qubit
    space. *)

val collapse : Context.t -> Vdd.edge -> qubit:int -> outcome:bool -> Vdd.edge
(** Project onto the given outcome and renormalise.  Raises
    {!Dd_error.Error} ([Degenerate_state]) if the outcome has
    (numerically) zero probability. *)

val measure_qubit :
  Context.t -> Random.State.t -> Vdd.edge -> qubit:int -> bool * Vdd.edge
(** Sample one qubit and return the outcome together with the collapsed,
    renormalised state. *)

val sample : Context.t -> Random.State.t -> Vdd.edge -> int
(** Sample a full basis-state index from the state's distribution without
    collapsing. *)

val probabilities :
  ?order:Order.t -> Context.t -> Vdd.edge -> n:int -> float array
(** Dense outcome distribution indexed by qubit bits ([order] defaults to
    identity); tests and small [n] only. *)
