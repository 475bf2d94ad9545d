open Dd_complex
open Types

type edge = Types.vedge

let zero = v_zero

(* Normalisation and hash-consing live in the shared core (Hashcons):
   both children are divided by the maximal-magnitude child weight (low
   wins ties), which becomes the weight of the returned edge. *)
let make ctx level low high =
  Hashcons.V.make ctx.Context.v_unique ~level low.vw low.vt high.vw high.vt
    Ctable.zero_tag v_terminal Ctable.zero_tag v_terminal

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

(* [scale_tag]'s weight rule on a bare weight tag: the kernels scale a
   child they read from its node's fields without building its edge *)
let mul_weight ct r w =
  if r = Ctable.zero_tag || w = Ctable.zero_tag then Ctable.zero_tag
  else if r = Ctable.one_tag then w
  else Ctable.mul ct r w

let terminal w =
  if w = Ctable.zero_tag then v_zero else { vw = w; vt = v_terminal }

(* A canonical subtree passes through [Hashcons.make] unchanged iff every
   node's normalisation pivot — the first child weight of strictly maximal
   magnitude — is exactly one.  That is usually true by construction, but
   not always: tolerance interning can merge a normalised child weight
   with a representative of magnitude exactly 1, leaving stored children
   such as [-1; 1] whose rebuild picks a different pivot and yields a
   different node.  A kernel that drags the state through an identity
   re-normalises those nodes, so the mat-vec kernel may only skip an
   identity acting on a subtree that is provably rebuild-stable.  The flag
   is intrinsic to the (immutable) node and memoised per node id. *)
let rec rebuild_stable ctx (v : vnode) =
  v_is_terminal v
  ||
  let flags = ctx.Context.apply_stable in
  let known =
    if v.vid < Bytes.length flags then Bytes.get flags v.vid else '\000'
  in
  match known with
  | '\001' -> true
  | '\002' -> false
  | _ ->
    let stable_child w t = w = Ctable.zero_tag || rebuild_stable ctx t in
    let s =
      Ctable.pivot4 ctx.Context.ctable v.lw v.hw Ctable.zero_tag
        Ctable.zero_tag
      = Ctable.one_tag
      && stable_child v.lw v.lt && stable_child v.hw v.ht
    in
    Context.set_apply_stable ctx v.vid s;
    s

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
  let rec fill w (node : vnode) weight index =
    if w <> Ctable.zero_tag then begin
      let weight = Cnum.mul weight (Ctable.get ct w) in
      if v_is_terminal node then out.(index) <- weight
      else begin
        let high = 1 lsl Order.qubit_of_level order node.level in
        fill node.lw node.lt weight index;
        fill node.hw node.ht weight (index lor high)
      end
    end
  in
  fill edge.vw edge.vt Cnum.one 0;
  out

let amplitude ?(order = Order.identity) ctx edge ~n index =
  let ct = ctx.Context.ctable in
  let rec walk w (node : vnode) level acc =
    if w = Ctable.zero_tag then Cnum.zero
    else
      let acc = Cnum.mul acc (Ctable.get ct w) in
      if level < 0 then acc
      else if (index lsr Order.qubit_of_level order level) land 1 = 0 then
        walk node.lw node.lt (level - 1) acc
      else walk node.hw node.ht (level - 1) acc
  in
  walk edge.vw edge.vt (n - 1) Cnum.one

(* Memoised addition with the first operand's weight factored out:
   wa*A + wb*B = wa * (A + (wb/wa) * B); the cache key is
   (A.id, B.id, tag (wb/wa)) after a commutativity-normalising swap.
   Below the top, operands are (weight, node) pairs read from the
   operands' fields: an edge is built only for a result. *)
let rec add ctx a b =
  if v_is_zero a then b
  else if v_is_zero b then a
  else add_nonzero ctx a.vw a.vt b.vw b.vt

and add_pair ctx aw at bw bt =
  if aw = Ctable.zero_tag then
    if bw = Ctable.zero_tag then v_zero else { vw = bw; vt = bt }
  else if bw = Ctable.zero_tag then { vw = aw; vt = at }
  else add_nonzero ctx aw at bw bt

and add_nonzero ctx aw (a : vnode) bw (b : vnode) =
  if v_is_terminal a && v_is_terminal b then
    terminal (Ctable.add ctx.Context.ctable aw bw)
  else begin
    assert (a.level = b.level);
    if a.vid < b.vid || (a.vid = b.vid && aw <= bw) then
      add_sorted ctx aw a bw b
    else add_sorted ctx bw b aw a
  end

and add_sorted ctx aw (a : vnode) bw (b : vnode) =
  let ct = ctx.Context.ctable in
  let ratio = Ctable.div ct bw aw in
  let table = ctx.Context.add_v in
  let k1 = a.vid and k2 = b.vid and k3 = ratio in
  let unit_result =
    if Compute_table.find table ~k1 ~k2 ~k3 then Compute_table.found table
    else begin
      let low = add_pair ctx a.lw a.lt (mul_weight ct ratio b.lw) b.lt in
      let high = add_pair ctx a.hw a.ht (mul_weight ct ratio b.hw) b.ht in
      let r = make ctx a.level low high in
      Compute_table.store table ~k1 ~k2 ~k3 r;
      r
    end
  in
  scale_tag ctx aw unit_result

let dot ctx a b =
  let value w = Ctable.get ctx.Context.ctable w in
  let table = ctx.Context.dot in
  let rec unit_dot na nb =
    if v_is_terminal na then Cnum.one
    else if Compute_table.find table ~k1:na.vid ~k2:nb.vid ~k3:0 then
      Compute_table.found table
    else begin
      let part wa ta wb tb =
        if wa = Ctable.zero_tag || wb = Ctable.zero_tag then Cnum.zero
        else
          Cnum.mul
            (Cnum.mul (Cnum.conj (value wa)) (value wb))
            (unit_dot ta tb)
      in
      let r =
        Cnum.add (part na.lw na.lt nb.lw nb.lt) (part na.hw na.ht nb.hw nb.ht)
      in
      Compute_table.store table ~k1:na.vid ~k2:nb.vid ~k3:0 r;
      r
    end
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
      if node.lw <> Ctable.zero_tag then walk node.lt;
      if node.hw <> Ctable.zero_tag then walk node.ht
    end
  in
  if not (v_is_zero edge) then walk edge.vt

let node_count edge =
  let count = ref 0 in
  iter_nodes (fun _ -> incr count) edge;
  !count

let equal = v_edge_equal

let magnitude ctx w = sqrt (Ctable.mag2 ctx.Context.ctable w)

(* largest |amplitude| of any path below a node (top weight excluded),
   cached per context *)
let rec node_max_magnitude ctx node =
  let table = ctx.Context.max_mag in
  if v_is_terminal node then 1.
  else if Compute_table.find table ~k1:node.vid ~k2:0 ~k3:0 then
    Compute_table.found table
  else begin
    let part w t =
      if w = Ctable.zero_tag then 0.
      else magnitude ctx w *. node_max_magnitude ctx t
    in
    let x = Float.max (part node.lw node.lt) (part node.hw node.ht) in
    Compute_table.store table ~k1:node.vid ~k2:0 ~k3:0 x;
    x
  end

let truncate ctx ~threshold edge =
  if v_is_zero edge then invalid_arg "Vdd.truncate: zero state";
  let memo = Hashtbl.create 256 in
  let rec prune node =
    match Hashtbl.find_opt memo node.vid with
    | Some e -> e
    | None ->
      let descend w t =
        if w = Ctable.zero_tag then v_zero
        else if magnitude ctx w *. node_max_magnitude ctx t < threshold then
          v_zero
        else scale_tag ctx w (prune t)
      in
      let e =
        if v_is_terminal node then terminal Ctable.one_tag
        else
          make ctx node.level (descend node.lw node.lt)
            (descend node.hw node.ht)
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
      let part w t =
        if w = Ctable.zero_tag then 0. else Ctable.mag2 ct w *. norm2 t
      in
      part node.lw node.lt +. part node.hw node.ht
  in
  let total = Ctable.mag2 ct pruned.vw *. norm2 pruned.vt in
  scale ctx (Cnum.of_float (1. /. sqrt total)) pruned
