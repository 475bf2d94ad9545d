open Dd_complex
open Types

type edge = Types.vedge

let zero = v_zero

(* Normalisation and hash-consing live in the shared core (Hashcons):
   both children are divided by the maximal-magnitude child weight (low
   wins ties), which becomes the weight of the returned edge. *)
let make ctx level low high =
  Hashcons.V.make ctx.Context.v_unique ~level [| low; high |]

(* The three scalings below share one rule: a zero factor or a zero edge
   gives the zero edge, a factor of exactly one gives the edge itself,
   anything else multiplies the weight in the complex table. *)
let with_weight edge w =
  if w = Ctable.zero_tag then v_zero
  else if w = edge.vw then edge
  else { vw = w; vt = edge.vt }

let scale ctx s edge =
  if Cnum.is_exact_zero s || v_is_zero edge then v_zero
  else if Cnum.is_exact_one s then edge
  else with_weight edge (Ctable.mul_value ctx.Context.ctable s edge.vw)

let scale_tag ctx w edge =
  if w = Ctable.zero_tag || v_is_zero edge then v_zero
  else if w = Ctable.one_tag then edge
  else with_weight edge (Ctable.mul ctx.Context.ctable w edge.vw)

let scale_product ctx a b edge =
  if v_is_zero edge then v_zero
  else with_weight edge (Ctable.scale_product ctx.Context.ctable a b edge.vw)

let terminal w =
  if w = Ctable.zero_tag then v_zero else { vw = w; vt = v_terminal }

let terminal_edge ctx z = terminal (Context.cnum ctx z)

(* Qubit-facing constructors and readers translate index bits through the
   level<->qubit order: the bit steering level [l] is bit
   [qubit_of_level l] of the basis index.  Under the identity order this
   is the plain [bit l] recursion the module always had. *)

let basis ctx ~n index =
  if index < 0 || (n < 63 && index >= 1 lsl n) then
    invalid_arg "Vdd.basis: index out of range";
  let order = ctx.Context.order in
  let rec build level edge =
    if level >= n then edge
    else
      let bit = (index lsr Order.qubit_of_level order level) land 1 in
      let next =
        if bit = 0 then make ctx level edge v_zero
        else make ctx level v_zero edge
      in
      build (level + 1) next
  in
  build 0 (terminal Ctable.one_tag)

let of_array ctx amplitudes =
  let len = Array.length amplitudes in
  if len = 0 || len land (len - 1) <> 0 then
    invalid_arg "Vdd.of_array: length must be a positive power of two";
  let order = ctx.Context.order in
  let rec build level index =
    if level < 0 then terminal_edge ctx amplitudes.(index)
    else
      let high = 1 lsl Order.qubit_of_level order level in
      make ctx level (build (level - 1) index)
        (build (level - 1) (index lor high))
  in
  let rec log2 k acc = if k = 1 then acc else log2 (k lsr 1) (acc + 1) in
  build (log2 len 0 - 1) 0

let to_array ?(order = Order.identity) ctx edge ~n =
  if n > 24 then invalid_arg "Vdd.to_array: too many qubits";
  let ct = ctx.Context.ctable in
  let out = Array.make (1 lsl n) Cnum.zero in
  let rec fill edge weight index =
    if not (v_is_zero edge) then begin
      let weight = Cnum.mul weight (Ctable.get ct edge.vw) in
      if v_is_terminal edge.vt then out.(index) <- weight
      else begin
        let high = 1 lsl Order.qubit_of_level order edge.vt.level in
        fill edge.vt.v_low weight index;
        fill edge.vt.v_high weight (index lor high)
      end
    end
  in
  fill edge Cnum.one 0;
  out

let amplitude ?(order = Order.identity) ctx edge ~n index =
  let ct = ctx.Context.ctable in
  let rec walk edge level acc =
    if v_is_zero edge then Cnum.zero
    else
      let acc = Cnum.mul acc (Ctable.get ct edge.vw) in
      if level < 0 then acc
      else
        let bit = (index lsr Order.qubit_of_level order level) land 1 in
        let child = if bit = 0 then edge.vt.v_low else edge.vt.v_high in
        walk child (level - 1) acc
  in
  walk edge (n - 1) Cnum.one

(* Memoised addition with the first operand's weight factored out:
   wa*A + wb*B = wa * (A + (wb/wa) * B); the cache key is
   (A.id, B.id, tag (wb/wa)) after a commutativity-normalising swap. *)
let rec add ctx a b =
  if v_is_zero a then b
  else if v_is_zero b then a
  else if v_is_terminal a.vt && v_is_terminal b.vt then
    terminal (Ctable.add ctx.Context.ctable a.vw b.vw)
  else begin
    assert (a.vt.level = b.vt.level);
    let a, b =
      if a.vt.vid < b.vt.vid || (a.vt.vid = b.vt.vid && a.vw <= b.vw) then
        (a, b)
      else (b, a)
    in
    let ratio = Ctable.div ctx.Context.ctable b.vw a.vw in
    let table = ctx.Context.add_v in
    let k1 = a.vt.vid and k2 = b.vt.vid and k3 = ratio in
    let unit_result =
      match Compute_table.find table ~k1 ~k2 ~k3 with
      | Some r -> r
      | None ->
        let na = a.vt and nb = b.vt in
        let low = add ctx na.v_low (scale_tag ctx ratio nb.v_low) in
        let high = add ctx na.v_high (scale_tag ctx ratio nb.v_high) in
        let r = make ctx na.level low high in
        Compute_table.store table ~k1 ~k2 ~k3 r;
        r
    in
    scale_tag ctx a.vw unit_result
  end

let dot ctx a b =
  let value w = Ctable.get ctx.Context.ctable w in
  let rec unit_dot na nb =
    if v_is_terminal na then Cnum.one
    else
      match
        Compute_table.find ctx.Context.dot ~k1:na.vid ~k2:nb.vid ~k3:0
      with
      | Some r -> r
      | None ->
        let part ea eb =
          if v_is_zero ea || v_is_zero eb then Cnum.zero
          else
            Cnum.mul
              (Cnum.mul (Cnum.conj (value ea.vw)) (value eb.vw))
              (unit_dot ea.vt eb.vt)
        in
        let r =
          Cnum.add (part na.v_low nb.v_low) (part na.v_high nb.v_high)
        in
        Compute_table.store ctx.Context.dot ~k1:na.vid ~k2:nb.vid ~k3:0 r;
        r
  in
  if v_is_zero a || v_is_zero b then Cnum.zero
  else begin
    assert (a.vt.level = b.vt.level);
    Cnum.mul
      (Cnum.mul (Cnum.conj (value a.vw)) (value b.vw))
      (unit_dot a.vt b.vt)
  end

let iter_nodes f edge =
  let seen = Hashtbl.create 256 in
  let rec walk node =
    if (not (v_is_terminal node)) && not (Hashtbl.mem seen node.vid) then begin
      Hashtbl.add seen node.vid ();
      f node;
      if not (v_is_zero node.v_low) then walk node.v_low.vt;
      if not (v_is_zero node.v_high) then walk node.v_high.vt
    end
  in
  if not (v_is_zero edge) then walk edge.vt

let node_count edge =
  let count = ref 0 in
  iter_nodes (fun _ -> incr count) edge;
  !count

let equal = v_edge_equal

let approx_equal_array ?(tol = 1e-9) xs ys =
  Array.length xs = Array.length ys
  && begin
       let ok = ref true in
       Array.iteri
         (fun i x -> if not (Cnum.approx_equal ~tol x ys.(i)) then ok := false)
         xs;
       !ok
     end

let magnitude ctx w = sqrt (Ctable.mag2 ctx.Context.ctable w)

(* largest |amplitude| of any path below a node (top weight excluded),
   cached per context *)
let rec node_max_magnitude ctx node =
  if v_is_terminal node then 1.
  else
    match
      Compute_table.find ctx.Context.max_mag ~k1:node.vid ~k2:0 ~k3:0
    with
    | Some x -> x
    | None ->
      let part e =
        if v_is_zero e then 0.
        else magnitude ctx e.vw *. node_max_magnitude ctx e.vt
      in
      let x = Float.max (part node.v_low) (part node.v_high) in
      Compute_table.store ctx.Context.max_mag ~k1:node.vid ~k2:0 ~k3:0 x;
      x

let top_amplitudes ctx ~n k edge =
  let order = ctx.Context.order in
  if v_is_zero edge then []
  else begin
    (* best-first search: a frontier of (bound, index-prefix, edge) sorted
       by decreasing bound; a completed path's bound is its exact
       magnitude, so when a terminal pops first it is globally maximal *)
    let module Frontier = Set.Make (struct
      type t = float * int * Cnum.t * vnode

      let compare (ba, ia, _, na) (bb, ib, _, nb) =
        (* decreasing bound; disambiguate by index and node id *)
        let c = compare bb ba in
        if c <> 0 then c
        else
          let c = compare ia ib in
          if c <> 0 then c else compare na.vid nb.vid
    end) in
    let value w = Ctable.get ctx.Context.ctable w in
    let initial_bound =
      magnitude ctx edge.vw *. node_max_magnitude ctx edge.vt
    in
    let frontier =
      ref (Frontier.singleton (initial_bound, 0, value edge.vw, edge.vt))
    in
    let results = ref [] in
    let found = ref 0 in
    while !found < k && not (Frontier.is_empty !frontier) do
      let ((_, index, amp, node) as entry) = Frontier.min_elt !frontier in
      frontier := Frontier.remove entry !frontier;
      if v_is_terminal node then begin
        results := (index, amp) :: !results;
        incr found
      end
      else begin
        let push bit child =
          if not (v_is_zero child) then begin
            let amp = Cnum.mul amp (value child.vw) in
            let bound = Cnum.mag amp *. node_max_magnitude ctx child.vt in
            let index =
              if bit = 0 then index
              else index lor (1 lsl Order.qubit_of_level order node.level)
            in
            frontier := Frontier.add (bound, index, amp, child.vt) !frontier
          end
        in
        push 0 node.v_low;
        push 1 node.v_high
      end
    done;
    ignore n;
    List.rev !results
  end

let truncate ctx ~threshold edge =
  if v_is_zero edge then invalid_arg "Vdd.truncate: zero state";
  let memo = Hashtbl.create 256 in
  let rec prune node =
    match Hashtbl.find_opt memo node.vid with
    | Some e -> e
    | None ->
      let descend child =
        if v_is_zero child then v_zero
        else if
          magnitude ctx child.vw *. node_max_magnitude ctx child.vt
          < threshold
        then v_zero
        else scale_tag ctx child.vw (prune child.vt)
      in
      let e =
        if v_is_terminal node then terminal Ctable.one_tag
        else make ctx node.level (descend node.v_low) (descend node.v_high)
      in
      Hashtbl.replace memo node.vid e;
      e
  in
  let pruned = scale_tag ctx edge.vw (prune edge.vt) in
  if v_is_zero pruned then
    invalid_arg "Vdd.truncate: threshold removes the whole state";
  (* renormalise to unit norm *)
  let ct = ctx.Context.ctable in
  let rec norm2 node =
    if v_is_terminal node then 1.
    else
      let part e =
        if v_is_zero e then 0. else Ctable.mag2 ct e.vw *. norm2 e.vt
      in
      part node.v_low +. part node.v_high
  in
  let total = Ctable.mag2 ct pruned.vw *. norm2 pruned.vt in
  scale ctx (Cnum.of_float (1. /. sqrt total)) pruned
