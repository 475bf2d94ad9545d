(* Structured gate application: apply a gate described as
   {target; controls; 2x2 matrix} directly to a vector DD, without ever
   materialising the n-qubit gate matrix DD.

   [Mdd.gate] pads the 2x2 target matrix with explicit identity levels and
   control branching, and [Mdd.apply] then recurses over that identity
   structure — paying node construction, compute-table traffic and
   multiplications that all multiply by exactly 1.  "Stripping Quantum
   Decision Diagrams of their Identity" (Sander et al.) observes that most
   of a gate DD *is* identity; the kernel below skips it:

   * levels above the target whose qubit is not a control are traversed
     with plain recursion — children rebuilt, weights untouched;
   * control levels recurse only into the active branch; the inactive
     branch is acted on by the identity, which collapses to a single
     weight product instead of a subtree traversal;
   * at the target level the 2x2 matrix is applied in closed form on the
     two children;
   * controls *below* the target descend the four quadrant blocks of the
     virtual gate the same way [Mdd.gate] builds them — branch selection
     at control levels, identity short-cuts everywhere else.

   Per-gate work is therefore proportional to the state DD — never to the
   qubit count n.

   Exactness: the kernel is value-identical to [Mdd.apply] on the DD that
   [Mdd.gate] would have built — same complex operations, same operand
   order, same normalisation pivots.  This is not a luxury.  The complex
   table merges within a tolerance, so interning is order-dependent:
   computing mathematically equal weights along different arithmetic
   routes lets them drift to distinct representatives, and the state DD
   fragments (observed on a 20-qubit Grover iteration: 1226 nodes where
   the canonical state has 39).  To stay on the generic path's arithmetic
   the prelude below replays the weight algebra of [Mdd.gate] +
   [Hashcons.make] — normalisation pivots chosen by the same
   first-maximal-magnitude rule, normalised weights interned the same way
   — without allocating a single DD node.  The recursion then mirrors
   [Mdd.apply]: all work happens on unit-weight nodes, weights combine as
   (gate edge weight x state edge weight) exactly as the generic kernel
   multiplies them.

   Results are memoised in [Context.apply_v] under the key
   (state node id, gate kind id, layout id packed with the recursion
   role); kind and layout ids are interned in the context (see
   context.ml), so equal keys imply equal gates and a collision can never
   produce a wrong answer. *)

open Dd_complex
open Types

(* Virtual gate-DD level descriptors, precomputed by the cascade below.
   [Skip] is an uninvolved level (both children carry weight one);
   [Ctrl] is a control level: the active branch continues into the
   sub-structure with weight [active_w], the inactive branch sees the
   identity scaled by [ident_w] ([None] for off-diagonal blocks, whose
   inactive branch is zero). *)
type step =
  | Skip
  | Ctrl of { active_high : bool; ident_w : Cnum.t option; active_w : Cnum.t }

(* First-maximal-magnitude pivot over raw child weights, in child order —
   exactly [Hashcons.make]'s rule (strict >, so the first maximum wins;
   zero weights have magnitude 0 and never win). *)
let pivot4 w0 w1 w2 w3 =
  let pivot = ref Cnum.zero and best = ref 0. in
  let consider w =
    let m = Cnum.mag2 w in
    if m > !best then begin
      best := m;
      pivot := w
    end
  in
  consider w0;
  consider w1;
  consider w2;
  consider w3;
  !pivot

(* role codes packed into the compute-table's third key word *)
let role_main = 0
let role_block ij = 1 + ij

(* Gate-independent identity-rebuild memo: stored under (node id, 0, 5).
   Gate entries use k2 = kind_id >= 1 and k3 = (layout_id lsl 3) lor role
   with layout_id >= 1, i.e. k3 >= 8 — so the key spaces are disjoint.
   Sharing the slot across gates mirrors the generic kernel, whose
   identity chains are hash-consed and hence share mul_mv entries. *)
let role_ident = 5

(* A canonical subtree passes through [Hashcons.make] unchanged iff every
   node's normalisation pivot — the first child weight of strictly maximal
   magnitude — is exactly one.  That is usually true by construction, but
   not always: tolerance interning can merge a normalised child weight
   with a representative of magnitude exactly 1, leaving stored children
   such as [-1; 1] whose rebuild picks a different pivot and yields a
   different node.  The generic kernel re-normalises those nodes when it
   drags the state through a gate's identity structure, so the fast path
   may only skip a subtree that is provably rebuild-stable.  The flag is
   intrinsic to the (immutable) node and memoised per node id. *)
let rec rebuild_stable ctx (v : vnode) =
  v_is_terminal v
  ||
  match Hashtbl.find_opt ctx.Context.apply_stable v.vid with
  | Some s -> s
  | None ->
    let stable_edge (e : vedge) = v_is_zero e || rebuild_stable ctx e.vt in
    let s =
      Cnum.is_exact_one (pivot4 v.v_low.vw v.v_high.vw Cnum.zero Cnum.zero)
      && stable_edge v.v_low && stable_edge v.v_high
    in
    Hashtbl.add ctx.Context.apply_stable v.vid s;
    s

let apply ctx ~n ~target ?(controls = []) entries state =
  (* validation and qubit -> level translation are Mdd.gate's own
     (Context.gate_site), so everything below mirrors the virtual gate DD
     it would build under the same order *)
  let { Context.target_level = target; polarity; layout_id } =
    Context.gate_site ctx ~operation:"Apply.apply" ~n ~target controls entries
  in
  if v_is_zero state then v_zero
  else begin
    if state.vt.level <> n - 1 then
      Dd_error.invalid_operand ~operation:"Apply.apply"
        (Printf.sprintf "state has height %d, expected %d"
           (state.vt.level + 1) n);
    let intern z = Context.cnum ctx z in
    let e, kind_id = Context.gate_kind ctx entries in
    (* ---- weight cascade: replay Mdd.gate's normalisation bottom-up ----
       Below the target, each of the four quadrant blocks carries a top
       weight (bw) and a zero flag (bz); diagonal blocks stop being zero at
       their first control level, where an identity branch appears. *)
    let bw = Array.copy e in
    let bz = Array.map Cnum.is_exact_zero e in
    let below = Array.init 4 (fun _ -> Array.make (max target 1) Skip) in
    for z = 0 to target - 1 do
      match polarity.(z) with
      | None -> () (* [b,0,0,b]: pivot b, children one, weight unchanged *)
      | Some pos ->
        for ij = 0 to 3 do
          let diagonal = ij = 0 || ij = 3 in
          if diagonal then begin
            let sub_w = if bz.(ij) then Cnum.zero else bw.(ij) in
            let p =
              if pos then pivot4 Cnum.one Cnum.zero Cnum.zero sub_w
              else pivot4 sub_w Cnum.zero Cnum.zero Cnum.one
            in
            (* intern in child-index order, as Hashcons.make does when the
               gate DD is built: positive controls put the identity branch
               first, negative controls the active branch.  Interning order
               assigns tags, and tags feed Vdd.add's canonical operand
               swap — a different order here would de-synchronise a
               fast-path context from a generic-path one. *)
            let ident_w, active_w =
              if pos then begin
                let iw = intern (Cnum.div Cnum.one p) in
                let aw =
                  if bz.(ij) then Cnum.zero else intern (Cnum.div sub_w p)
                in
                (iw, aw)
              end
              else begin
                let aw =
                  if bz.(ij) then Cnum.zero else intern (Cnum.div sub_w p)
                in
                let iw = intern (Cnum.div Cnum.one p) in
                (iw, aw)
              end
            in
            below.(ij).(z) <-
              Ctrl { active_high = pos; ident_w = Some ident_w; active_w };
            bw.(ij) <- p;
            bz.(ij) <- false
          end
          else if not bz.(ij) then begin
            (* [0,0,0,b] (or mirrored): pivot = b, active child one *)
            below.(ij).(z) <-
              Ctrl
                {
                  active_high = pos;
                  ident_w = None;
                  active_w = intern (Cnum.div bw.(ij) bw.(ij));
                }
            (* weight stays bw *)
          end
        done
    done;
    (* Lowest control level of each block ([target] when there is none):
       below it every step is an uninvolved identity level, so a subtree
       living entirely under it is acted on by the identity only — for a
       rebuild-stable subtree a single weight product instead of a
       traversal (see [rebuild_stable]).  For an uncontrolled gate this
       collapses the whole below-target region: the 2x2 matrix acts in
       closed form on the target's two children. *)
    let lowest_ctrl = Array.make 4 target in
    Array.iteri
      (fun ij steps ->
        for z = target - 1 downto 0 do
          match steps.(z) with
          | Ctrl _ -> lowest_ctrl.(ij) <- z
          | Skip -> ()
        done)
      below;
    let traw =
      Array.init 4 (fun ij -> if bz.(ij) then Cnum.zero else bw.(ij))
    in
    let p = pivot4 traw.(0) traw.(1) traw.(2) traw.(3) in
    if Cnum.is_exact_zero p then v_zero (* zero matrix *)
    else begin
      let nw =
        Array.map
          (fun w ->
            if Cnum.is_exact_zero w then Cnum.zero
            else intern (Cnum.div w p))
          traw
      in
      (* Above the target a single edge weight propagates upward; control
         levels normalise it against the identity branch's weight one. *)
      let above = Array.make (max (n - target - 1) 1) Skip in
      let cur = ref p in
      for z = target + 1 to n - 1 do
        match polarity.(z) with
        | None -> () (* [w,0,0,w]: children one, weight unchanged *)
        | Some pos ->
          let pv =
            if pos then pivot4 Cnum.one Cnum.zero Cnum.zero !cur
            else pivot4 !cur Cnum.zero Cnum.zero Cnum.one
          in
          (* child-index intern order again, see the below-target cascade *)
          let ident_w, active_w =
            if pos then begin
              let iw = intern (Cnum.div Cnum.one pv) in
              let aw = intern (Cnum.div !cur pv) in
              (iw, aw)
            end
            else begin
              let aw = intern (Cnum.div !cur pv) in
              let iw = intern (Cnum.div Cnum.one pv) in
              (iw, aw)
            end
          in
          above.(z - target - 1) <-
            Ctrl { active_high = pos; ident_w = Some ident_w; active_w };
          cur := pv
      done;
      let w_root = !cur in
      (* ---- recursion: Mdd.apply on the virtual gate DD ---- *)
      let table = ctx.Context.apply_v in
      let k3_of role = (layout_id lsl 3) lor role in
      (* Identity acting on a subtree.  Rebuild-stable subtrees collapse
         to a single weight product — the one place the kernel beats the
         generic path asymptotically.  Unstable subtrees (rare; see
         [rebuild_stable]) replay the generic kernel's identity descent
         node for node, so the re-normalisation it performs happens here
         too and both paths stay bitwise in lockstep. *)
      let rec ident_unit (v : vnode) =
        match Compute_table.find table ~k1:v.vid ~k2:0 ~k3:role_ident with
        | Some r -> r
        | None ->
          let low = ident_sub v.v_low in
          let high = ident_sub v.v_high in
          let r = Vdd.make ctx v.level low high in
          Compute_table.store table ~k1:v.vid ~k2:0 ~k3:role_ident r;
          r
      and ident_sub (edge : vedge) =
        if v_is_zero edge then v_zero
        else if v_is_terminal edge.vt then edge
        else if rebuild_stable ctx edge.vt then begin
          (* cache-equivalent win without a table probe — counted so the
             bench can see the reuse the apply_v hit rate misses *)
          Context.note_apply_skip ctx;
          edge
        end
        else Vdd.scale ctx (Cnum.mul Cnum.one edge.vw) (ident_unit edge.vt)
      in
      let ident_edge w (edge : vedge) =
        if v_is_zero edge then v_zero
        else if v_is_terminal edge.vt then begin
          let w = intern (Cnum.mul w edge.vw) in
          if Cnum.is_exact_zero w then v_zero else { vw = w; vt = v_terminal }
        end
        else if rebuild_stable ctx edge.vt then begin
          (* the generic rebuild returns the same node under its raw
             normalisation pivot (bitwise one, but a tagged representative
             — tags feed Vdd.add's operand swap, so the exact value
             matters, not just its bits) *)
          Context.note_apply_skip ctx;
          let v = edge.vt in
          Vdd.scale ctx
            (Cnum.mul w edge.vw)
            {
              vw = pivot4 v.v_low.vw v.v_high.vw Cnum.zero Cnum.zero;
              vt = v;
            }
        end
        else Vdd.scale ctx (Cnum.mul w edge.vw) (ident_unit edge.vt)
      in
      let rec unit_main (v : vnode) =
        let k3 = k3_of role_main in
        match Compute_table.find table ~k1:v.vid ~k2:kind_id ~k3 with
        | Some r -> r
        | None ->
          let level = v.level in
          (* Child evaluation order mirrors Mdd.apply exactly: low branch
             first, then high, and inside each Vdd.add the high-side
             operand before the low-side one (the generic kernel passes
             both sub-applications as arguments, which OCaml evaluates
             right to left).  Order matters because node and tag creation
             order feeds Vdd.add's canonical operand swap — see the
             exactness note at the top of this file. *)
          let r =
            if level > target then
              match above.(level - target - 1) with
              | Skip ->
                let low = main_edge Cnum.one v.v_low in
                let high = main_edge Cnum.one v.v_high in
                Vdd.make ctx level low high
              | Ctrl { active_high; ident_w; active_w } ->
                let iw = Option.get ident_w in
                if active_high then begin
                  let low = ident_edge iw v.v_low in
                  let high = main_edge active_w v.v_high in
                  Vdd.make ctx level low high
                end
                else begin
                  let low = main_edge active_w v.v_low in
                  let high = ident_edge iw v.v_high in
                  Vdd.make ctx level low high
                end
            else begin
              (* level = target: no level skipping, so the descent from
                 the root hits every level down to here *)
              let a01 = block_edge 1 nw.(1) v.v_high in
              let a00 = block_edge 0 nw.(0) v.v_low in
              let low = Vdd.add ctx a00 a01 in
              let a11 = block_edge 3 nw.(3) v.v_high in
              let a10 = block_edge 2 nw.(2) v.v_low in
              let high = Vdd.add ctx a10 a11 in
              Vdd.make ctx level low high
            end
          in
          Compute_table.store table ~k1:v.vid ~k2:kind_id ~k3 r;
          r
      and main_edge w (edge : vedge) =
        if v_is_zero edge then v_zero
        else Vdd.scale ctx (Cnum.mul w edge.vw) (unit_main edge.vt)
      and block_edge ij w (edge : vedge) =
        if Cnum.is_exact_zero w || v_is_zero edge then v_zero
        else if v_is_terminal edge.vt then begin
          let w = intern (Cnum.mul w edge.vw) in
          if Cnum.is_exact_zero w then v_zero else { vw = w; vt = v_terminal }
        end
        else if edge.vt.level < lowest_ctrl.(ij) then
          (* only identity levels below: the identity acts on the subtree *)
          ident_edge w edge
        else Vdd.scale ctx (Cnum.mul w edge.vw) (unit_block ij edge.vt)
      and unit_block ij (v : vnode) =
        let k3 = k3_of (role_block ij) in
        match Compute_table.find table ~k1:v.vid ~k2:kind_id ~k3 with
        | Some r -> r
        | None ->
          let level = v.level in
          (* low before high, as in unit_main *)
          let r =
            match below.(ij).(level) with
            | Skip ->
              let low = block_edge ij Cnum.one v.v_low in
              let high = block_edge ij Cnum.one v.v_high in
              Vdd.make ctx level low high
            | Ctrl { active_high; ident_w; active_w } ->
              let inactive edge =
                match ident_w with
                | None -> v_zero
                | Some w -> ident_edge w edge
              in
              if active_high then begin
                let low = inactive v.v_low in
                let high = block_edge ij active_w v.v_high in
                Vdd.make ctx level low high
              end
              else begin
                let low = block_edge ij active_w v.v_low in
                let high = inactive v.v_high in
                Vdd.make ctx level low high
              end
          in
          Compute_table.store table ~k1:v.vid ~k2:kind_id ~k3 r;
          r
      in
      main_edge w_root state
    end
  end
