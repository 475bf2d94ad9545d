(* Dynamic variable reordering: the classic adjacent-level BDD swap,
   specialised to weighted quantum DDs, plus a sifting search on top.

   A swap of levels [l] and [l+1] is a local rewrite.  Writing the four
   "grandchild" sub-vectors of a node [v] at level [l+1] as
   g(b, c) = weight(child b) * child(b).child(c) — b the branch taken at
   the old top level, c at the old lower level — the swapped node is

     make (l+1) [make l (g 0 0) (g 1 0)]  [make l (g 0 1) (g 1 1)]

   i.e. the steering bits trade places.  Every rebuilt node goes through
   [Vdd.make], so normalisation (pivot rule) and unique-table canonicity
   are preserved by construction; nodes strictly below level [l] are
   shared untouched, nodes above are rebuilt bottom-up (their children
   changed identity).  The order map swaps the two levels' qubits in
   lockstep, so the qubit-space semantics of the state are unchanged. *)

open Types

type stats = { mutable swaps : int; nodes_before : int; mutable nodes_after : int }

(* Swap levels [level] and [level + 1] of a vector DD.  Pure structural
   rewrite: the caller is responsible for swapping the order map (see
   [swap] below).  The edge must reach at least level [level + 1]. *)
let swap_vector ctx (edge : Vdd.edge) ~level =
  let lo = level and hi = level + 1 in
  if v_is_zero edge then edge
  else if edge.vt.level < hi then
    invalid_arg "Reorder.swap_vector: level out of range"
  else begin
    let memo = Hashtbl.create 256 in
    let swap_node (v : vnode) =
      (* children of a level-hi node sit exactly at level lo (dense-level
         invariant), so the grandchild picture above always applies *)
      let g b c =
        let child = if b = 0 then v_low v else v_high v in
        if v_is_zero child then v_zero
        else
          let gc = if c = 0 then v_low child.vt else v_high child.vt in
          Vdd.scale_tag ctx child.vw gc
      in
      let new_low = Vdd.make ctx lo (g 0 0) (g 1 0) in
      let new_high = Vdd.make ctx lo (g 0 1) (g 1 1) in
      Vdd.make ctx hi new_low new_high
    in
    let rec walk (v : vnode) =
      match Hashtbl.find_opt memo v.vid with
      | Some e -> e
      | None ->
        let e =
          if v.level = hi then swap_node v
          else
            let descend w (t : vnode) =
              if w = Dd_complex.Ctable.zero_tag then v_zero
              else Vdd.scale_tag ctx w (walk t)
            in
            Vdd.make ctx v.level (descend v.lw v.lt) (descend v.hw v.ht)
        in
        Hashtbl.add memo v.vid e;
        e
    in
    Vdd.scale_tag ctx edge.vw (walk edge.vt)
  end

(* Matrix analogue: the four quadrants of a level-(l+1) node trade nesting
   with their own quadrants.  Provided for completeness and tests; the
   engine never swaps live matrices (gate DDs are rebuilt per gate through
   the order, and the identity cache is order-agnostic). *)
let swap_matrix ctx (edge : Mdd.edge) ~level =
  let lo = level and hi = level + 1 in
  if m_is_zero edge then edge
  else if edge.mt.level < hi then
    invalid_arg "Reorder.swap_matrix: level out of range"
  else begin
    let memo = Hashtbl.create 256 in
    let swap_node (v : mnode) =
      let g i j =
        let child = m_child v i in
        if m_is_zero child then m_zero
        else Mdd.scale_tag ctx child.mw (m_child child.mt j)
      in
      let sub j = Mdd.make ctx lo (g 0 j) (g 1 j) (g 2 j) (g 3 j) in
      Mdd.make ctx hi (sub 0) (sub 1) (sub 2) (sub 3)
    in
    let rec walk (v : mnode) =
      match Hashtbl.find_opt memo v.mid with
      | Some e -> e
      | None ->
        let e =
          if v.level = hi then swap_node v
          else
            let descend w (t : mnode) =
              if w = Dd_complex.Ctable.zero_tag then m_zero
              else Mdd.scale_tag ctx w (walk t)
            in
            Mdd.make ctx v.level (descend v.w00 v.t00) (descend v.w01 v.t01)
              (descend v.w10 v.t10) (descend v.w11 v.t11)
        in
        Hashtbl.add memo v.mid e;
        e
    in
    Mdd.scale_tag ctx edge.mw (walk edge.mt)
  end

(* One full adjacent swap: rewrite the state and swap the context's order
   map, keeping both views consistent. *)
let swap ctx (edge : Vdd.edge) ~level =
  let n = v_height edge in
  let swapped = swap_vector ctx edge ~level in
  Context.set_order ctx (Order.swap_levels (Context.order ctx) ~n level);
  swapped

(* Permute the state to an explicit target order by bubbling each qubit to
   its destination level with adjacent swaps (selection sort from the top
   level down: O(n^2) swaps, each linear in the DD size). *)
let apply_order ctx (edge : Vdd.edge) target =
  let n = v_height edge in
  let edge = ref edge in
  let swaps = ref 0 in
  for level = n - 1 downto 1 do
    let wanted = Order.qubit_of_level target level in
    (* current level of the wanted qubit; by induction it sits at or
       below [level] (higher levels are already settled) *)
    let current = ref (-1) in
    for l = 0 to level do
      if Order.qubit_of_level (Context.order ctx) l = wanted then current := l
    done;
    if !current < 0 then
      invalid_arg "Reorder.apply_order: order width mismatch";
    for l = !current to level - 1 do
      edge := swap ctx !edge ~level:l;
      incr swaps
    done
  done;
  (!edge, !swaps)

let per_level_nodes (edge : Vdd.edge) =
  let n = v_height edge in
  let counts = Array.make (max n 1) 0 in
  Vdd.iter_nodes
    (fun node -> counts.(node.level) <- counts.(node.level) + 1)
    edge;
  counts

(* Sifting (Rudell): move one variable through every level by adjacent
   swaps, remember the position minimising the total node count, return
   there; process variables in decreasing order of their level's node
   count; repeat passes while the total shrinks, at most [max_passes].
   [max_growth] aborts a direction early when the intermediate DD grows
   beyond that factor of the running best — the standard guard against
   blow-up mid-sift. *)
let max_growth = 2.0
let max_passes = 4

let sift ctx (edge : Vdd.edge) =
  let n = v_height edge in
  let stats =
    { swaps = 0; nodes_before = Vdd.node_count edge; nodes_after = 0 }
  in
  if n < 2 || v_is_zero edge then begin
    stats.nodes_after <- stats.nodes_before;
    (edge, stats)
  end
  else begin
    let edge = ref edge in
    let do_swap level =
      edge := swap ctx !edge ~level;
      stats.swaps <- stats.swaps + 1
    in
    let sift_one qubit =
      let best = ref (Vdd.node_count !edge) in
      let limit =
        int_of_float (max_growth *. float_of_int !best) + 1
      in
      let position () = Order.level_of_qubit (Context.order ctx) qubit in
      let start = position () in
      let best_pos = ref start in
      (* explore the shorter side first, then the other *)
      let down_first = start <= (n - 1) / 2 in
      let explore step =
        (* move one level at a time in direction [step] until the wall or
           the growth limit, tracking the best position seen *)
        let continue = ref true in
        while
          !continue
          &&
          let p = position () in
          if step < 0 then p > 0 else p < n - 1
        do
          let p = position () in
          do_swap (if step < 0 then p - 1 else p);
          let count = Vdd.node_count !edge in
          if count < !best then begin
            best := count;
            best_pos := position ()
          end;
          if count > limit then continue := false
        done
      in
      let return_to target =
        while position () <> target do
          let p = position () in
          do_swap (if p > target then p - 1 else p)
        done
      in
      if down_first then begin
        explore (-1);
        return_to start;
        explore 1
      end
      else begin
        explore 1;
        return_to start;
        explore (-1)
      end;
      return_to !best_pos
    in
    let pass () =
      let before = Vdd.node_count !edge in
      (* variables by decreasing node count of their current level *)
      let counts = per_level_nodes !edge in
      let order = Context.order ctx in
      let by_weight =
        List.sort
          (fun (_, a) (_, b) -> compare b a)
          (List.init n (fun l -> (Order.qubit_of_level order l, counts.(l))))
      in
      List.iter (fun (qubit, _) -> sift_one qubit) by_weight;
      Vdd.node_count !edge < before
    in
    let passes = ref 0 in
    while !passes < max_passes && pass () do
      incr passes
    done;
    stats.nodes_after <- Vdd.node_count !edge;
    (!edge, stats)
  end
