(** Structured gate application: apply a gate given as
    [{target; controls; 2x2 matrix}] directly to a vector DD, without
    constructing the n-qubit gate matrix DD.  Identity levels are skipped
    by plain recursion, control levels descend only the active branch, and
    the 2x2 matrix is applied in closed form at the target level, so
    per-gate work is proportional to the state DD — never to n.  Results
    are memoised in {!Context.t.apply_v}. *)

open Dd_complex

val apply :
  Context.t ->
  n:int ->
  target:int ->
  ?controls:Context.control list ->
  Cnum.t array ->
  Types.vedge ->
  Types.vedge
(** [apply ctx ~n ~target ~controls entries state] — [entries] is the
    row-major 2x2 matrix [|m00; m01; m10; m11|].  Controls may sit on any
    wire, above or below the target.  Raises {!Dd_error.Error}
    ([Invalid_operand]) on malformed input (bad ranges, duplicate
    controls, control equal to target, wrong state height). *)
