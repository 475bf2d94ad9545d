open Dd_complex

type violation =
  | Unrepresented_node of { dd : string; level : int; id : int }
  | Pivot_rule of { dd : string; level : int; id : int; detail : string }
  | Zero_stub of { dd : string; level : int; id : int }
  | Uninterned_weight of { dd : string; level : int; id : int }
  | Level_skew of { dd : string; level : int; id : int }
  | Norm_drift of { norm : float; tolerance : float }
  | Stale_entry of { table : string; k1 : int; k2 : int; k3 : int }
  | Order_skew of { detail : string }

type violation_class = Canonicity | Norm | Table

let class_of = function
  | Unrepresented_node _ | Pivot_rule _ | Zero_stub _ | Uninterned_weight _
  | Level_skew _ | Order_skew _ ->
    Canonicity
  | Norm_drift _ -> Norm
  | Stale_entry _ -> Table

let to_string = function
  | Unrepresented_node { dd; level; id } ->
    Printf.sprintf "%s node %d (level %d) is not its unique table's \
                    representative" dd id level
  | Pivot_rule { dd; level; id; detail } ->
    Printf.sprintf "%s node %d (level %d) violates the pivot rule: %s" dd id
      level detail
  | Zero_stub { dd; level; id } ->
    Printf.sprintf
      "%s node %d (level %d) has a zero-weight edge to a non-terminal" dd id
      level
  | Uninterned_weight { dd; level; id } ->
    Printf.sprintf "%s node %d (level %d) carries an uninterned weight" dd id
      level
  | Level_skew { dd; level; id } ->
    Printf.sprintf "%s node %d (level %d) has a child skipping a level" dd id
      level
  | Norm_drift { norm; tolerance } ->
    Printf.sprintf "state norm drifted to %.12g (tolerance %g)" norm
      tolerance
  | Stale_entry { table; k1; k2; k3 } ->
    Printf.sprintf
      "compute table %s entry (%d, %d, %d) resolves to a freed node" table
      k1 k2 k3
  | Order_skew { detail } ->
    Printf.sprintf "level<->qubit order is inconsistent: %s" detail

(* slack for "magnitude at most one": normalised weights are exact
   quotients, but interning may merge a weight with a canonical value up
   to the table tolerance away *)
let mag_slack = 1e-9

(* A weight is a tag the context's complex table handed out. *)
let interned ctx w = w >= 0 && w < Ctable.size ctx.Context.ctable

(* One node's structural checks, shared by both arities.  [children] are
   the node's child edges; [mem] probes the node's unique table. *)
let check_node ctx ~dd ~push ~mem ~level ~id children =
  if not (mem ()) then push (Unrepresented_node { dd; level; id });
  let best = ref 0. in
  Array.iteri
    (fun i (weight, target_level) ->
      if weight = Ctable.zero_tag then begin
        if target_level >= 0 then push (Zero_stub { dd; level; id })
      end
      else if not (interned ctx weight) then
        push (Uninterned_weight { dd; level; id })
      else begin
        if target_level <> level - 1 then push (Level_skew { dd; level; id });
        let m = Ctable.mag2 ctx.Context.ctable weight in
        if m > 1. +. mag_slack then
          push
            (Pivot_rule
               {
                 dd;
                 level;
                 id;
                 detail =
                   Printf.sprintf "child %d weight magnitude^2 = %.12g > 1"
                     i m;
               });
        if m > !best then best := m
      end)
    children;
  if !best = 0. then
    push (Pivot_rule { dd; level; id; detail = "every child edge is zero" })
  else begin
    (* the normalisation pivot was the first child of maximal magnitude
       *before* the division, an ordering interning noise makes
       unrecoverable under near-ties — but whichever child it was, its
       stored quotient is exactly one.  So the checkable invariant is:
       some child carries weight exactly one (and the magnitude bound
       above caps everything else at 1) *)
    let has_unit =
      Array.exists (fun (weight, _) -> weight = Ctable.one_tag) children
    in
    if not has_unit then
      push
        (Pivot_rule
           {
             dd;
             level;
             id;
             detail = "no child carries weight 1 (normalisation pivot lost)";
           })
  end

let norm2_uncached ctx (edge : Types.vedge) =
  (* a foreign tag has no value: the norm is unknown, not an exception *)
  let mag2 w =
    if interned ctx w then Ctable.mag2 ctx.Context.ctable w else Float.nan
  in
  let memo = Hashtbl.create 256 in
  let rec node_norm (node : Types.vnode) =
    if node.Types.level < 0 then 1.
    else
      match Hashtbl.find_opt memo node.Types.vid with
      | Some v -> v
      | None ->
        let contribution w t =
          if w = Ctable.zero_tag then 0. else mag2 w *. node_norm t
        in
        let v =
          contribution node.Types.lw node.Types.lt
          +. contribution node.Types.hw node.Types.ht
        in
        Hashtbl.add memo node.Types.vid v;
        v
  in
  if Types.v_is_zero edge then 0.
  else mag2 edge.Types.vw *. node_norm edge.Types.vt

let check_vector ?norm_tol ctx (edge : Types.vedge) =
  let violations = ref [] in
  let push v = violations := v :: !violations in
  let seen = Hashtbl.create 256 in
  let rec walk (node : Types.vnode) =
    if node.Types.level >= 0 && not (Hashtbl.mem seen node.Types.vid) then begin
      Hashtbl.add seen node.Types.vid ();
      check_node ctx ~dd:"vector" ~push
        ~mem:(fun () -> Hashcons.V.mem ctx.Context.v_unique node)
        ~level:node.Types.level ~id:node.Types.vid
        [|
          (node.Types.lw, node.Types.lt.Types.level);
          (node.Types.hw, node.Types.ht.Types.level);
        |];
      walk node.Types.lt;
      walk node.Types.ht
    end
  in
  if not (Types.v_is_zero edge) then begin
    if not (interned ctx edge.Types.vw) then
      push
        (Uninterned_weight
           { dd = "vector"; level = edge.Types.vt.Types.level + 1; id = 0 });
    walk edge.Types.vt
  end;
  (match norm_tol with
  | None -> ()
  | Some tolerance ->
    let n2 = norm2_uncached ctx edge in
    let norm = sqrt n2 in
    if (not (Float.is_finite norm)) || Float.abs (norm -. 1.) > tolerance
    then push (Norm_drift { norm; tolerance }));
  List.rev !violations

let check_tables ctx =
  let violations = ref [] in
  let v_resident = Hashtbl.create 4096 in
  let m_resident = Hashtbl.create 4096 in
  Hashcons.V.iter
    (fun (n : Types.vnode) -> Hashtbl.replace v_resident n.Types.vid ())
    ctx.Context.v_unique;
  Hashcons.M.iter
    (fun (n : Types.mnode) -> Hashtbl.replace m_resident n.Types.mid ())
    ctx.Context.m_unique;
  let v_live id = id = 0 || Hashtbl.mem v_resident id in
  let m_live id = id = 0 || Hashtbl.mem m_resident id in
  (* Only the *values* matter: node ids are never reused, so a key naming
     a dead id is a harmless miss, but a value edge to a freed node would
     resurrect it on the next hit (see Context.collect). *)
  let check_v table =
    let name = Compute_table.name table in
    Compute_table.iter
      (fun k1 k2 k3 (v : Types.vedge) ->
        if not (v_live v.Types.vt.Types.vid) then
          violations := Stale_entry { table = name; k1; k2; k3 } :: !violations)
      table
  in
  let check_m table =
    let name = Compute_table.name table in
    Compute_table.iter
      (fun k1 k2 k3 (v : Types.medge) ->
        if not (m_live v.Types.mt.Types.mid) then
          violations := Stale_entry { table = name; k1; k2; k3 } :: !violations)
      table
  in
  check_v ctx.Context.add_v;
  check_v ctx.Context.mul_mv;
  check_m ctx.Context.add_m;
  check_m ctx.Context.mul_mm;
  check_m ctx.Context.adjoint;
  check_m ctx.Context.gate;
  List.rev !violations

(* The order map is part of the representation's meaning: if the two
   arrays stop being mutually inverse permutations, every qubit-facing
   translation (gate targets, measurement, amplitudes) silently reads the
   wrong wire.  Re-derive the invariant from the arrays themselves. *)
let check_order ctx =
  let order = Context.order ctx in
  if Order.is_identity order || Order.is_valid order then []
  else
    [
      Order_skew
        {
          detail =
            Printf.sprintf
              "qubit_of_level [%s] and level_of_qubit are not mutually \
               inverse permutations"
              (Order.to_string order);
        };
    ]

exception Foreign_tag

let rebuild_vector ctx (edge : Types.vedge) =
  let memo = Hashtbl.create 256 in
  (* bottom-up: rebuild every node through Vdd.make (re-normalising and
     re-interning), then scale by the original edge weight *)
  let rec rebuild (e : Types.vedge) =
    if Types.v_is_zero e then Types.v_zero
    else if not (interned ctx e.Types.vw) then raise_notrace Foreign_tag
    else if e.Types.vt.Types.level < 0 then Vdd.terminal e.Types.vw
    else begin
      let node = e.Types.vt in
      let rebuilt =
        match Hashtbl.find_opt memo node.Types.vid with
        | Some r -> r
        | None ->
          let low = rebuild (Types.v_low node) in
          let high = rebuild (Types.v_high node) in
          let r = Vdd.make ctx node.Types.level low high in
          Hashtbl.add memo node.Types.vid r;
          r
      in
      Vdd.scale_tag ctx e.Types.vw rebuilt
    end
  in
  (* a weight tag the table never handed out has no value to rebuild
     from: the DD stays as it is, and the violation stands *)
  try rebuild edge with Foreign_tag -> edge
