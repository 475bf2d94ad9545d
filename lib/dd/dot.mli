(** Graphviz export of decision diagrams, for inspecting the size effects
    the paper illustrates in Fig. 2 and Fig. 5. *)

val vector_to_dot :
  ?name:string -> ?annotate:bool -> ?order:Order.t -> Context.t -> Vdd.edge ->
  string
(** DOT source for a vector DD, whose weights are read from the context's
    complex table; edge labels carry the weights (weights equal
    to one are omitted, zero stubs are drawn as small boxes, as in the
    paper's drawing convention).  Node labels name the *qubit* hosted at
    the node's level under [order] (default identity) — under a reordered
    run [q2] at the top level really means qubit 2, not level 2.  With
    [~annotate:true] every non-zero edge label additionally carries the
    weight magnitude and its log2 bucket ([|w|=0.7071 (2^0)]), and nodes
    are grouped into [rank=same] rows labelled [level N (qubit Q)] — the
    view used by [ddsim inspect --dot]. *)

val matrix_to_dot :
  ?name:string -> ?annotate:bool -> ?order:Order.t -> Context.t -> Mdd.edge ->
  string
(** DOT source for a matrix DD; the four out-edges are labelled 00/01/10/11
    for the quadrants.  [~annotate:true] and [order] behave as for
    {!vector_to_dot}. *)
