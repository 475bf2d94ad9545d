open Dd_complex
open Types

let mag2 ctx w = Ctable.mag2 ctx.Context.ctable w

(* node_norm n = sum over all paths below n of the squared magnitude of the
   path weight product; the top edge weight is excluded so the value can be
   cached per node. *)
let rec node_norm ctx node =
  let table = ctx.Context.norm in
  if v_is_terminal node then 1.
  else if Compute_table.find table ~k1:node.vid ~k2:0 ~k3:0 then
    Compute_table.found table
  else begin
    let x = child_mass ctx node.lw node.lt +. child_mass ctx node.hw node.ht in
    Compute_table.store table ~k1:node.vid ~k2:0 ~k3:0 x;
    x
  end

(* squared norm of a child given by its weight tag and target *)
and child_mass ctx w t =
  if w = Ctable.zero_tag then 0. else mag2 ctx w *. node_norm ctx t

let norm2 ctx edge =
  if v_is_zero edge then 0.
  else mag2 ctx edge.vw *. node_norm ctx edge.vt

let probability_one ctx edge ~qubit =
  if v_is_zero edge then
    Dd_error.degenerate ~operation:"Measure.probability_one" "zero state";
  if qubit < 0 || qubit > edge.vt.level then
    Dd_error.invalid_operand ~operation:"Measure.probability_one"
      (Printf.sprintf "qubit %d out of range" qubit);
  (* the measured wire is a qubit; find the level hosting it *)
  let level = Context.level_of_qubit ctx qubit in
  let memo = Hashtbl.create 64 in
  (* weight of all paths through the |1> branch at [level], per node *)
  let rec mass node =
    match Hashtbl.find_opt memo node.vid with
    | Some x -> x
    | None ->
      let x =
        if node.level = level then child_mass ctx node.hw node.ht
        else
          let part w t =
            if w = Ctable.zero_tag then 0. else mag2 ctx w *. mass t
          in
          part node.lw node.lt +. part node.hw node.ht
      in
      Hashtbl.add memo node.vid x;
      x
  in
  let total = norm2 ctx edge in
  mag2 ctx edge.vw *. mass edge.vt /. total

let collapse ctx edge ~qubit ~outcome =
  if v_is_zero edge then
    Dd_error.degenerate ~operation:"Measure.collapse" "zero state";
  if qubit < 0 || qubit > edge.vt.level then
    Dd_error.invalid_operand ~operation:"Measure.collapse"
      (Printf.sprintf "qubit %d out of range" qubit);
  let level = Context.level_of_qubit ctx qubit in
  let memo = Hashtbl.create 64 in
  let rec project node =
    match Hashtbl.find_opt memo node.vid with
    | Some e -> e
    | None ->
      let descend w t =
        if w = Ctable.zero_tag then v_zero
        else Vdd.scale_tag ctx w (project t)
      in
      let e =
        if node.level = level then
          if outcome then Vdd.make ctx node.level v_zero (v_high node)
          else Vdd.make ctx node.level (v_low node) v_zero
        else
          Vdd.make ctx node.level (descend node.lw node.lt)
            (descend node.hw node.ht)
      in
      Hashtbl.add memo node.vid e;
      e
  in
  let full = Vdd.scale_tag ctx edge.vw (project edge.vt) in
  let p = norm2 ctx full in
  if p < 1e-24 then
    Dd_error.degenerate ~operation:"Measure.collapse"
      "zero-probability outcome";
  Vdd.scale ctx (Cnum.of_float (1. /. sqrt p)) full

let measure_qubit ctx rng edge ~qubit =
  let p1 = probability_one ctx edge ~qubit in
  let outcome = Random.State.float rng 1. < p1 in
  (outcome, collapse ctx edge ~qubit ~outcome)

let sample ctx rng edge =
  if v_is_zero edge then
    Dd_error.degenerate ~operation:"Measure.sample" "zero state";
  let rec walk node acc =
    if v_is_terminal node then acc
    else
      let p0 = child_mass ctx node.lw node.lt
      and p1 = child_mass ctx node.hw node.ht in
      let pick_high = Random.State.float rng (p0 +. p1) >= p0 in
      if pick_high then
        walk node.ht (acc lor (1 lsl Context.qubit_of_level ctx node.level))
      else walk node.lt acc
  in
  walk edge.vt 0

let probabilities ?order ctx edge ~n =
  let amps = Vdd.to_array ?order ctx edge ~n in
  Array.map Cnum.mag2 amps
