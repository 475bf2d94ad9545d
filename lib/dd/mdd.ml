open Dd_complex
open Types

type edge = Types.medge

let zero = m_zero

(* Normalisation and hash-consing live in the shared core (Hashcons):
   the four quadrants are divided by the first maximal-magnitude quadrant
   weight, which becomes the weight of the returned edge. *)
let make ctx level e00 e01 e10 e11 =
  Hashcons.M.make ctx.Context.m_unique ~level [| e00; e01; e10; e11 |]

let scale ctx s edge =
  if Cnum.is_exact_zero s || m_is_zero edge then m_zero
  else if Cnum.is_exact_one s then edge
  else
    let w = Context.cnum ctx (Cnum.mul s edge.mw) in
    if Cnum.is_exact_zero w then m_zero else { mw = w; mt = edge.mt }

let terminal_edge ctx w =
  let w = Context.cnum ctx w in
  if Cnum.is_exact_zero w then m_zero else { mw = w; mt = m_terminal }

let identity ctx n =
  let rec build k =
    if k = 0 then terminal_edge ctx Cnum.one
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
   single edge is extended the same way.  [entries] are interned. *)
let build_gate ctx ~n { Context.target_level = target; polarity; _ } entries =
  let blocks = Array.map (fun w -> terminal_edge ctx w) entries in
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
  match Compute_table.find table ~k1 ~k2 ~k3 with
  | Some e -> e
  | None ->
    let e = build_gate ctx ~n site entries in
    Compute_table.store table ~k1 ~k2 ~k3 e;
    e

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
  build 0 (terminal_edge ctx Cnum.one)

let rec add ctx a b =
  if m_is_zero a then b
  else if m_is_zero b then a
  else if m_is_terminal a.mt && m_is_terminal b.mt then
    terminal_edge ctx (Cnum.add a.mw b.mw)
  else begin
    assert (a.mt.level = b.mt.level);
    let a, b =
      if
        a.mt.mid < b.mt.mid
        || (a.mt.mid = b.mt.mid && Cnum.tag a.mw <= Cnum.tag b.mw)
      then (a, b)
      else (b, a)
    in
    let ratio = Context.cnum ctx (Cnum.div b.mw a.mw) in
    let table = ctx.Context.add_m in
    let k1 = a.mt.mid and k2 = b.mt.mid and k3 = Cnum.tag ratio in
    let unit_result =
      match Compute_table.find table ~k1 ~k2 ~k3 with
      | Some r -> r
      | None ->
        let na = a.mt and nb = b.mt in
        let part qa qb = add ctx qa (scale ctx ratio qb) in
        let r =
          make ctx na.level (part na.m00 nb.m00) (part na.m01 nb.m01)
            (part na.m10 nb.m10) (part na.m11 nb.m11)
        in
        Compute_table.store table ~k1 ~k2 ~k3 r;
        r
    in
    scale ctx a.mw unit_result
  end

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

(* Matrix-vector multiplication, Fig. 3 of the paper: the result for a
   (matrix node, vector node) pair — with unit top weights — is memoised, so
   re-occurring sub-products are computed once. *)
let rec apply ctx me ve =
  if m_is_zero me || v_is_zero ve then v_zero
  else if m_is_terminal me.mt then begin
    assert (v_is_terminal ve.vt);
    let w = Context.cnum ctx (Cnum.mul me.mw ve.vw) in
    if Cnum.is_exact_zero w then v_zero else { vw = w; vt = v_terminal }
  end
  else begin
    assert (me.mt.level = ve.vt.level);
    let table = ctx.Context.mul_mv in
    let k1 = me.mt.mid and k2 = ve.vt.vid in
    let unit_result =
      match Compute_table.find table ~k1 ~k2 ~k3:0 with
      | Some r -> r
      | None ->
        let m = me.mt and v = ve.vt in
        let low =
          Vdd.add ctx (apply ctx m.m00 v.v_low) (apply ctx m.m01 v.v_high)
        in
        let high =
          Vdd.add ctx (apply ctx m.m10 v.v_low) (apply ctx m.m11 v.v_high)
        in
        let r = Vdd.make ctx m.level low high in
        Compute_table.store table ~k1 ~k2 ~k3:0 r;
        r
    in
    Vdd.scale ctx (Cnum.mul me.mw ve.vw) unit_result
  end

let rec mul ctx ae be =
  if m_is_zero ae || m_is_zero be then m_zero
  else if m_is_terminal ae.mt then begin
    assert (m_is_terminal be.mt);
    terminal_edge ctx (Cnum.mul ae.mw be.mw)
  end
  else begin
    assert (ae.mt.level = be.mt.level);
    let table = ctx.Context.mul_mm in
    let k1 = ae.mt.mid and k2 = be.mt.mid in
    let unit_result =
      match Compute_table.find table ~k1 ~k2 ~k3:0 with
      | Some r -> r
      | None ->
        let a = ae.mt and b = be.mt in
        let entry ai0 ai1 b0j b1j =
          add ctx (mul ctx ai0 b0j) (mul ctx ai1 b1j)
        in
        let r =
          make ctx a.level
            (entry a.m00 a.m01 b.m00 b.m10)
            (entry a.m00 a.m01 b.m01 b.m11)
            (entry a.m10 a.m11 b.m00 b.m10)
            (entry a.m10 a.m11 b.m01 b.m11)
        in
        Compute_table.store table ~k1 ~k2 ~k3:0 r;
        r
    in
    scale ctx (Cnum.mul ae.mw be.mw) unit_result
  end

let rec adjoint ctx e =
  if m_is_zero e then m_zero
  else if m_is_terminal e.mt then terminal_edge ctx (Cnum.conj e.mw)
  else
    let unit_result =
      match
        Compute_table.find ctx.Context.adjoint ~k1:e.mt.mid ~k2:0 ~k3:0
      with
      | Some r -> r
      | None ->
        let n = e.mt in
        let r =
          make ctx n.level (adjoint ctx n.m00) (adjoint ctx n.m10)
            (adjoint ctx n.m01) (adjoint ctx n.m11)
        in
        Compute_table.store ctx.Context.adjoint ~k1:n.mid ~k2:0 ~k3:0 r;
        r
    in
    scale ctx (Cnum.conj e.mw) unit_result

let kron ctx a b =
  if m_is_zero a || m_is_zero b then m_zero
  else begin
    let height_b = m_height b in
    let memo = Hashtbl.create 64 in
    let rec lift e =
      if m_is_zero e then m_zero
      else if m_is_terminal e.mt then scale ctx e.mw b
      else
        let node =
          match Hashtbl.find_opt memo e.mt.mid with
          | Some r -> r
          | None ->
            let n = e.mt in
            let r =
              make ctx (n.level + height_b) (lift n.m00) (lift n.m01)
                (lift n.m10) (lift n.m11)
            in
            Hashtbl.add memo n.mid r;
            r
        in
        scale ctx e.mw node
    in
    lift a
  end

let entry ?(order = Order.identity) edge ~n ~row ~col =
  let rec walk edge level acc =
    if m_is_zero edge then Cnum.zero
    else
      let acc = Cnum.mul acc edge.mw in
      if level < 0 then acc
      else
        let q = Order.qubit_of_level order level in
        let rbit = (row lsr q) land 1 and cbit = (col lsr q) land 1 in
        let child =
          match (rbit, cbit) with
          | 0, 0 -> edge.mt.m00
          | 0, 1 -> edge.mt.m01
          | 1, 0 -> edge.mt.m10
          | _, _ -> edge.mt.m11
        in
        walk child (level - 1) acc
  in
  walk edge (n - 1) Cnum.one

let to_dense ?(order = Order.identity) edge ~n =
  if n > 12 then invalid_arg "Mdd.to_dense: too many qubits";
  let dim = 1 lsl n in
  Array.init dim (fun row ->
      Array.init dim (fun col -> entry ~order edge ~n ~row ~col))

let iter_nodes f edge =
  let seen = Hashtbl.create 256 in
  let rec walk node =
    if (not (m_is_terminal node)) && not (Hashtbl.mem seen node.mid) then begin
      Hashtbl.add seen node.mid ();
      f node;
      List.iter
        (fun e -> if not (m_is_zero e) then walk e.mt)
        [ node.m00; node.m01; node.m10; node.m11 ]
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
