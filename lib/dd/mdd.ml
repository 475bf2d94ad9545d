open Dd_complex
open Types

type edge = Types.medge

let zero = m_zero

(* Normalisation and hash-consing live in the shared core (Hashcons):
   the four quadrants are divided by the first maximal-magnitude quadrant
   weight, which becomes the weight of the returned edge. *)
let make ctx level e00 e01 e10 e11 =
  Hashcons.M.make ctx.Context.m_unique ~level e00.mw e00.mt e01.mw e01.mt
    e10.mw e10.mt e11.mw e11.mt

(* The scalings share Vdd's rule: a zero factor or a zero edge gives the
   zero edge, a factor of exactly one gives the edge itself, anything
   else multiplies the weight in the complex table. *)
let with_weight edge w =
  if w = Ctable.zero_tag then m_zero
  else if w = edge.mw then edge
  else { mw = w; mt = edge.mt }

let scale_tag ctx w edge =
  if w = Ctable.zero_tag || m_is_zero edge then m_zero
  else if w = Ctable.one_tag then edge
  else with_weight edge (Ctable.mul ctx.Context.ctable w edge.mw)

let scale_product ctx a b edge =
  if m_is_zero edge then m_zero
  else with_weight edge (Ctable.scale_product ctx.Context.ctable a b edge.mw)

(* scaling by the conjugate of a canonical weight [w], not interned:
   exactly zero or one only when [w] is *)
let scale_conj ctx w edge =
  if w = Ctable.zero_tag || m_is_zero edge then m_zero
  else if w = Ctable.one_tag then edge
  else with_weight edge (Ctable.conj_mul ctx.Context.ctable w edge.mw)

let terminal w =
  if w = Ctable.zero_tag then m_zero else { mw = w; mt = m_terminal }

let zero_tag = Ctable.zero_tag

let terminal_edge ctx z = terminal (Context.cnum ctx z)

let identity ctx n =
  let rec build k =
    if k = 0 then terminal Ctable.one_tag
    else
      match Hashtbl.find_opt ctx.Context.identity_cache k with
      | Some e -> e
      | None ->
        let below = build (k - 1) in
        let e = make ctx (k - 1) below m_zero m_zero below in
        Hashtbl.add ctx.Context.identity_cache k e;
        e
  in
  if n < 0 then
    Dd_error.invalid_operand ~operation:"Mdd.identity" "negative qubit count"
  else build n

(* Bottom-up gate construction: below the target the four quadrant blocks
   f.(i).(j) are extended level by level (identity on uninvolved qubits,
   branch selection on control qubits: the inactive control value must see
   the identity on the diagonal blocks and zero elsewhere); at the target
   the four blocks become the children of one node; above the target a
   single edge is extended the same way.  [entries] are weight tags. *)
let build_gate ctx ~n { Context.target_level = target; polarity; _ } entries =
  let blocks = Array.map terminal entries in
  for z = 0 to target - 1 do
    let extend block =
      match polarity.(z) with
      | None -> fun _diag -> make ctx z block m_zero m_zero block
      | Some true -> fun diag -> make ctx z diag m_zero m_zero block
      | Some false -> fun diag -> make ctx z block m_zero m_zero diag
    in
    for idx = 0 to 3 do
      let on_diagonal = idx = 0 || idx = 3 in
      let diag = if on_diagonal then identity ctx z else m_zero in
      blocks.(idx) <- extend blocks.(idx) diag
    done
  done;
  let top = ref (make ctx target blocks.(0) blocks.(1) blocks.(2) blocks.(3)) in
  for z = target + 1 to n - 1 do
    let e = !top in
    top :=
      (match polarity.(z) with
      | None -> make ctx z e m_zero m_zero e
      | Some true -> make ctx z (identity ctx z) m_zero m_zero e
      | Some false -> make ctx z e m_zero m_zero (identity ctx z))
  done;
  !top

(* Memoised in [Context.gate] under (kind id, layout id, n): a window of
   k gates asks for the same few gate DDs over and over, and a hit hands
   back the edge the first build produced.  The key is exact (see
   [Context.gate_site]), so a hit is the DD a rebuild would return. *)
let gate ctx ~n ~target ?(controls = []) entries =
  let site =
    Context.gate_site ctx ~operation:"Mdd.gate" ~n ~target controls entries
  in
  let entries, kind_id = Context.gate_kind ctx entries in
  let table = ctx.Context.gate in
  let k1 = kind_id and k2 = site.Context.layout_id and k3 = n in
  if Compute_table.find table ~k1 ~k2 ~k3 then Compute_table.found table
  else begin
    let e = build_gate ctx ~n site entries in
    Compute_table.store table ~k1 ~k2 ~k3 e;
    e
  end

(* |row><col| on [n] qubits: a single path of nodes. *)
let outer_product ctx ~n ~row ~col =
  let order = ctx.Context.order in
  let rec build level edge =
    if level >= n then edge
    else
      let q = Order.qubit_of_level order level in
      let rbit = (row lsr q) land 1 and cbit = (col lsr q) land 1 in
      let place i j = if i = rbit && j = cbit then edge else m_zero in
      build (level + 1)
        (make ctx level (place 0 0) (place 0 1) (place 1 0) (place 1 1))
  in
  build 0 (terminal Ctable.one_tag)

(* Vdd.add's scheme: below the top, operands are (weight, node) pairs
   read from the operands' fields, and an edge is built only for a
   result. *)
let rec add ctx a b =
  if m_is_zero a then b
  else if m_is_zero b then a
  else add_nonzero ctx a.mw a.mt b.mw b.mt

and add_pair ctx aw at bw bt =
  if aw = zero_tag then if bw = zero_tag then m_zero else { mw = bw; mt = bt }
  else if bw = zero_tag then { mw = aw; mt = at }
  else add_nonzero ctx aw at bw bt

and add_nonzero ctx aw (a : mnode) bw (b : mnode) =
  if m_is_terminal a && m_is_terminal b then
    terminal (Ctable.add ctx.Context.ctable aw bw)
  else begin
    assert (a.level = b.level);
    if a.mid < b.mid || (a.mid = b.mid && aw <= bw) then
      add_sorted ctx aw a bw b
    else add_sorted ctx bw b aw a
  end

and add_sorted ctx aw (a : mnode) bw (b : mnode) =
  let ct = ctx.Context.ctable in
  let ratio = Ctable.div ct bw aw in
  let table = ctx.Context.add_m in
  let k1 = a.mid and k2 = b.mid and k3 = ratio in
  let unit_result =
    if Compute_table.find table ~k1 ~k2 ~k3 then Compute_table.found table
    else begin
      let part qaw qat qbw qbt =
        add_pair ctx qaw qat (Vdd.mul_weight ct ratio qbw) qbt
      in
      let r =
        make ctx a.level
          (part a.w00 a.t00 b.w00 b.t00)
          (part a.w01 a.t01 b.w01 b.t01)
          (part a.w10 a.t10 b.w10 b.t10)
          (part a.w11 a.t11 b.w11 b.t11)
      in
      Compute_table.store table ~k1 ~k2 ~k3 r;
      r
    end
  in
  scale_tag ctx aw unit_result

let of_permutation ctx ~n f =
  if n > 30 then invalid_arg "Mdd.of_permutation: too many qubits";
  let size = 1 lsl n in
  let seen = Array.make size false in
  let acc = ref m_zero in
  for col = 0 to size - 1 do
    let row = f col in
    if row < 0 || row >= size then
      invalid_arg "Mdd.of_permutation: image out of range";
    if seen.(row) then invalid_arg "Mdd.of_permutation: not a bijection";
    seen.(row) <- true;
    acc := add ctx !acc (outer_product ctx ~n ~row ~col)
  done;
  !acc

let of_dense ctx matrix =
  let dim = Array.length matrix in
  if dim = 0 || dim land (dim - 1) <> 0 then
    invalid_arg "Mdd.of_dense: dimension must be a power of two";
  Array.iter
    (fun row ->
      if Array.length row <> dim then invalid_arg "Mdd.of_dense: not square")
    matrix;
  let order = ctx.Context.order in
  let rec build level rowidx colidx =
    if level < 0 then terminal_edge ctx matrix.(rowidx).(colidx)
    else
      let high = 1 lsl Order.qubit_of_level order level in
      make ctx level
        (build (level - 1) rowidx colidx)
        (build (level - 1) rowidx (colidx lor high))
        (build (level - 1) (rowidx lor high) colidx)
        (build (level - 1) (rowidx lor high) (colidx lor high))
  in
  let rec log2 k acc = if k = 1 then acc else log2 (k lsr 1) (acc + 1) in
  build (log2 dim 0 - 1) 0 0

let control_top ctx ~n ?(positive = true) u =
  if positive then make ctx n (identity ctx n) m_zero m_zero u
  else make ctx n u m_zero m_zero (identity ctx n)

(* Is [m] the identity node of its level?  Structurally: weights one,
   zero, zero, one, and both diagonal children the identity one level
   down (the terminal at level 0).  Hash-consing keeps one identity node
   per level, and a node leaves the unique table only in
   [Context.collect], which empties the memo; so once a level's identity
   is known, any other node there is not it, and the test is one array
   read.  It allocates nothing (bar the memo's growth) and builds no
   node. *)
let rec is_identity ctx (m : mnode) =
  m_is_terminal m
  ||
  let ids = ctx.Context.identity_ids in
  let known = if m.level < Array.length ids then ids.(m.level) else 0 in
  if known <> 0 then known = m.mid
  else
    m.w00 = Ctable.one_tag && m.w11 = Ctable.one_tag && m.w01 = zero_tag
    && m.w10 = zero_tag && m.t00 == m.t11 && is_identity ctx m.t00
    && begin
         Context.set_identity_id ctx m.level m.mid;
         true
       end

(* Matrix-vector multiplication, Fig. 3 of the paper: the result for a
   (matrix node, vector node) pair — with unit top weights — is memoised, so
   re-occurring sub-products are computed once.  The recursion takes
   (weight, node) pairs, reading children from the nodes' fields.

   An identity node applied to a rebuild-stable vector node skips both the
   probe and the descent.  The recursion would rebuild [v] as itself: each
   child [{w; t}] comes back as [scale_product one w {one; t}], which is
   [w]'s own tag (interning an existing tag's value returns that tag), and
   [make]'s pivot is exactly one.  So the unit result is [{one; v}]. *)
let rec apply ctx me ve = apply_pair ctx me.mw me.mt ve.vw ve.vt

and apply_pair ctx mw (m : mnode) vw (v : vnode) =
  if mw = zero_tag || vw = zero_tag then v_zero
  else if m_is_terminal m then begin
    assert (v_is_terminal v);
    Vdd.terminal (Ctable.mul ctx.Context.ctable mw vw)
  end
  else begin
    assert (m.level = v.level);
    let table = ctx.Context.mul_mv in
    let k1 = m.mid and k2 = v.vid in
    let unit_result =
      if is_identity ctx m && Vdd.rebuild_stable ctx v then
        { vw = Ctable.one_tag; vt = v }
      else if Compute_table.find table ~k1 ~k2 ~k3:0 then
        Compute_table.found table
      else begin
        let low =
          Vdd.add ctx
            (apply_pair ctx m.w00 m.t00 v.lw v.lt)
            (apply_pair ctx m.w01 m.t01 v.hw v.ht)
        in
        let high =
          Vdd.add ctx
            (apply_pair ctx m.w10 m.t10 v.lw v.lt)
            (apply_pair ctx m.w11 m.t11 v.hw v.ht)
        in
        let r = Vdd.make ctx m.level low high in
        Compute_table.store table ~k1 ~k2 ~k3:0 r;
        r
      end
    in
    Vdd.scale_product ctx mw vw unit_result
  end

let rec mul ctx ae be = mul_pair ctx ae.mw ae.mt be.mw be.mt

and mul_pair ctx aw (a : mnode) bw (b : mnode) =
  if aw = zero_tag || bw = zero_tag then m_zero
  else if m_is_terminal a then begin
    assert (m_is_terminal b);
    terminal (Ctable.mul ctx.Context.ctable aw bw)
  end
  else begin
    assert (a.level = b.level);
    let table = ctx.Context.mul_mm in
    let k1 = a.mid and k2 = b.mid in
    let unit_result =
      if Compute_table.find table ~k1 ~k2 ~k3:0 then Compute_table.found table
      else begin
        let r =
          make ctx a.level
            (mul_entry ctx a.w00 a.t00 a.w01 a.t01 b.w00 b.t00 b.w10 b.t10)
            (mul_entry ctx a.w00 a.t00 a.w01 a.t01 b.w01 b.t01 b.w11 b.t11)
            (mul_entry ctx a.w10 a.t10 a.w11 a.t11 b.w00 b.t00 b.w10 b.t10)
            (mul_entry ctx a.w10 a.t10 a.w11 a.t11 b.w01 b.t01 b.w11 b.t11)
        in
        Compute_table.store table ~k1 ~k2 ~k3:0 r;
        r
      end
    in
    scale_product ctx aw bw unit_result
  end

(* entry (i, j) of a product: a_i0 b_0j + a_i1 b_1j *)
and mul_entry ctx wi0 ti0 wi1 ti1 w0j t0j w1j t1j =
  add ctx (mul_pair ctx wi0 ti0 w0j t0j) (mul_pair ctx wi1 ti1 w1j t1j)

let rec adjoint ctx e = adjoint_pair ctx e.mw e.mt

and adjoint_pair ctx w (n : mnode) =
  if w = zero_tag then m_zero
  else if m_is_terminal n then terminal (Ctable.conj ctx.Context.ctable w)
  else
    let table = ctx.Context.adjoint in
    let unit_result =
      if Compute_table.find table ~k1:n.mid ~k2:0 ~k3:0 then
        Compute_table.found table
      else begin
        let r =
          make ctx n.level (adjoint_pair ctx n.w00 n.t00)
            (adjoint_pair ctx n.w10 n.t10) (adjoint_pair ctx n.w01 n.t01)
            (adjoint_pair ctx n.w11 n.t11)
        in
        Compute_table.store table ~k1:n.mid ~k2:0 ~k3:0 r;
        r
      end
    in
    scale_conj ctx w unit_result

let entry ?(order = Order.identity) ctx edge ~n ~row ~col =
  let ct = ctx.Context.ctable in
  let rec walk w (node : mnode) level acc =
    if w = zero_tag then Cnum.zero
    else
      let acc = Cnum.mul acc (Ctable.get ct w) in
      if level < 0 then acc
      else
        let q = Order.qubit_of_level order level in
        let rbit = (row lsr q) land 1 and cbit = (col lsr q) land 1 in
        match (rbit, cbit) with
        | 0, 0 -> walk node.w00 node.t00 (level - 1) acc
        | 0, 1 -> walk node.w01 node.t01 (level - 1) acc
        | 1, 0 -> walk node.w10 node.t10 (level - 1) acc
        | _, _ -> walk node.w11 node.t11 (level - 1) acc
  in
  walk edge.mw edge.mt (n - 1) Cnum.one

let to_dense ?(order = Order.identity) ctx edge ~n =
  if n > 12 then invalid_arg "Mdd.to_dense: too many qubits";
  let dim = 1 lsl n in
  Array.init dim (fun row ->
      Array.init dim (fun col -> entry ~order ctx edge ~n ~row ~col))

let iter_nodes f edge =
  let seen = Hashtbl.create 256 in
  let rec walk node =
    if (not (m_is_terminal node)) && not (Hashtbl.mem seen node.mid) then begin
      Hashtbl.add seen node.mid ();
      f node;
      let child w t = if w <> zero_tag then walk t in
      child node.w00 node.t00;
      child node.w01 node.t01;
      child node.w10 node.t10;
      child node.w11 node.t11
    end
  in
  if not (m_is_zero edge) then walk edge.mt

let node_count edge =
  let count = ref 0 in
  iter_nodes (fun _ -> incr count) edge;
  !count

let equal = m_edge_equal

let of_diagonal ctx ~n f =
  if n > 30 then invalid_arg "Mdd.of_diagonal: too many qubits";
  let order = ctx.Context.order in
  let rec build level index =
    if level < 0 then terminal_edge ctx (f index)
    else
      let high = 1 lsl Order.qubit_of_level order level in
      make ctx level
        (build (level - 1) index)
        m_zero m_zero
        (build (level - 1) (index lor high))
  in
  build (n - 1) 0
