(* Structured gate application: apply a gate described as
   {target; controls; 2x2 matrix} directly to a vector DD, without ever
   materialising the n-qubit gate matrix DD.

   [Mdd.gate] pads the 2x2 target matrix with explicit identity levels and
   control branching.  [Mdd.apply] answers an identity node in O(1) (for a
   rebuild-stable state node), but it still walks every level above the
   target and every control block through the gate DD's nodes, paying
   compute-table traffic and multiplications by exactly 1.  "Stripping
   Quantum Decision Diagrams of their Identity" (Sander et al.) observes
   that most of a gate DD *is* identity; the kernel below skips it:

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
   first-maximal-magnitude rule ([Ctable.pivot4]), normalised weights
   interned the same way — without allocating a single DD node.  The
   recursion then mirrors [Mdd.apply]: all work happens on unit-weight
   nodes, weights combine as (gate edge weight x state edge weight)
   exactly as the generic kernel multiplies them.

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
  | Ctrl of { active_high : bool; ident_w : int option; active_w : int }

let zero = Ctable.zero_tag
let one = Ctable.one_tag

(* role codes packed into the compute-table's third key word *)
let role_main = 0
let role_block ij = 1 + ij

(* Gate-independent identity-rebuild memo: stored under (node id, 0, 5).
   Gate entries use k2 = kind_id >= 1 and k3 = (layout_id lsl 3) lor role
   with layout_id >= 1, i.e. k3 >= 8 — so the key spaces are disjoint.
   Sharing the slot across gates mirrors the generic kernel, whose
   identity chains are hash-consed and hence share mul_mv entries. *)
let role_ident = 5

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
    let ct = ctx.Context.ctable in
    let pivot4 = Ctable.pivot4 ct in
    let e, kind_id = Context.gate_kind ctx entries in
    (* ---- weight cascade: replay Mdd.gate's normalisation bottom-up ----
       Below the target, each of the four quadrant blocks carries a top
       weight (bw) and a zero flag (bz); diagonal blocks stop being zero at
       their first control level, where an identity branch appears. *)
    let bw = Array.copy e in
    let bz = Array.map (fun w -> w = zero) e in
    let below = Array.init 4 (fun _ -> Array.make (max target 1) Skip) in
    for z = 0 to target - 1 do
      match polarity.(z) with
      | None -> () (* [b,0,0,b]: pivot b, children one, weight unchanged *)
      | Some pos ->
        for ij = 0 to 3 do
          let diagonal = ij = 0 || ij = 3 in
          if diagonal then begin
            let sub_w = if bz.(ij) then zero else bw.(ij) in
            let p =
              if pos then pivot4 one zero zero sub_w
              else pivot4 sub_w zero zero one
            in
            (* intern in child-index order, as Hashcons.make does when the
               gate DD is built: positive controls put the identity branch
               first, negative controls the active branch.  Interning order
               assigns tags, and tags feed Vdd.add's canonical operand
               swap — a different order here would de-synchronise a
               fast-path context from a generic-path one. *)
            let ident_w, active_w =
              if pos then begin
                let iw = Ctable.div ct one p in
                let aw = if bz.(ij) then zero else Ctable.div ct sub_w p in
                (iw, aw)
              end
              else begin
                let aw = if bz.(ij) then zero else Ctable.div ct sub_w p in
                let iw = Ctable.div ct one p in
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
                  active_w = Ctable.div ct bw.(ij) bw.(ij);
                }
            (* weight stays bw *)
          end
        done
    done;
    (* Lowest control level of each block ([target] when there is none):
       below it every step is an uninvolved identity level, so a subtree
       living entirely under it is acted on by the identity only — for a
       rebuild-stable subtree a single weight product instead of a
       traversal (see [Vdd.rebuild_stable]).  For an uncontrolled gate this
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
    let traw = Array.init 4 (fun ij -> if bz.(ij) then zero else bw.(ij)) in
    let p = pivot4 traw.(0) traw.(1) traw.(2) traw.(3) in
    if p = zero then v_zero (* zero matrix *)
    else begin
      let nw =
        Array.map (fun w -> if w = zero then zero else Ctable.div ct w p) traw
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
            if pos then pivot4 one zero zero !cur
            else pivot4 !cur zero zero one
          in
          (* child-index intern order again, see the below-target cascade *)
          let ident_w, active_w =
            if pos then begin
              let iw = Ctable.div ct one pv in
              let aw = Ctable.div ct !cur pv in
              (iw, aw)
            end
            else begin
              let aw = Ctable.div ct !cur pv in
              let iw = Ctable.div ct one pv in
              (iw, aw)
            end
          in
          above.(z - target - 1) <-
            Ctrl { active_high = pos; ident_w = Some ident_w; active_w };
          cur := pv
      done;
      let w_root = !cur in
      (* ---- recursion: Mdd.apply on the virtual gate DD ----
         Like Mdd.apply, it takes a child as the (weight tag, node)
         fields it reads and builds edges only for results. *)
      let table = ctx.Context.apply_v in
      let k3_of role = (layout_id lsl 3) lor role in
      (* Identity acting on a subtree.  Rebuild-stable subtrees collapse
         to a single weight product, as an identity node does in
         Mdd.apply.  Unstable subtrees (rare; see
         [Vdd.rebuild_stable]) replay the generic kernel's identity descent
         node for node, so the re-normalisation it performs happens here
         too and both paths stay bitwise in lockstep. *)
      let rec ident_unit (v : vnode) =
        if Compute_table.find table ~k1:v.vid ~k2:0 ~k3:role_ident then
          Compute_table.found table
        else begin
          let low = ident_sub v.lw v.lt in
          let high = ident_sub v.hw v.ht in
          let r = Vdd.make ctx v.level low high in
          Compute_table.store table ~k1:v.vid ~k2:0 ~k3:role_ident r;
          r
        end
      and ident_sub w (t : vnode) =
        if w = zero then v_zero
        else if v_is_terminal t then { vw = w; vt = t }
        else if Vdd.rebuild_stable ctx t then begin
          (* cache-equivalent win without a table probe — counted so the
             bench can see the reuse the apply_v hit rate misses *)
          Context.note_apply_skip ctx;
          { vw = w; vt = t }
        end
        else Vdd.scale_product ctx one w (ident_unit t)
      in
      let ident_edge w ew (t : vnode) =
        if ew = zero then v_zero
        else if v_is_terminal t then Vdd.terminal (Ctable.mul ct w ew)
        else if Vdd.rebuild_stable ctx t then begin
          (* the generic rebuild returns the same node under its raw
             normalisation pivot (bitwise one, but a tagged representative
             — tags feed Vdd.add's operand swap, so the exact value
             matters, not just its bits) *)
          Context.note_apply_skip ctx;
          Vdd.scale_product ctx w ew
            { vw = pivot4 t.lw t.hw zero zero; vt = t }
        end
        else Vdd.scale_product ctx w ew (ident_unit t)
      in
      let rec unit_main (v : vnode) =
        let k3 = k3_of role_main in
        if Compute_table.find table ~k1:v.vid ~k2:kind_id ~k3 then
          Compute_table.found table
        else begin
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
                let low = main_edge one v.lw v.lt in
                let high = main_edge one v.hw v.ht in
                Vdd.make ctx level low high
              | Ctrl { active_high; ident_w; active_w } ->
                let iw = Option.get ident_w in
                if active_high then begin
                  let low = ident_edge iw v.lw v.lt in
                  let high = main_edge active_w v.hw v.ht in
                  Vdd.make ctx level low high
                end
                else begin
                  let low = main_edge active_w v.lw v.lt in
                  let high = ident_edge iw v.hw v.ht in
                  Vdd.make ctx level low high
                end
            else begin
              (* level = target: no level skipping, so the descent from
                 the root hits every level down to here *)
              let a01 = block_edge 1 nw.(1) v.hw v.ht in
              let a00 = block_edge 0 nw.(0) v.lw v.lt in
              let low = Vdd.add ctx a00 a01 in
              let a11 = block_edge 3 nw.(3) v.hw v.ht in
              let a10 = block_edge 2 nw.(2) v.lw v.lt in
              let high = Vdd.add ctx a10 a11 in
              Vdd.make ctx level low high
            end
          in
          Compute_table.store table ~k1:v.vid ~k2:kind_id ~k3 r;
          r
        end
      and main_edge w ew (t : vnode) =
        if ew = zero then v_zero
        else Vdd.scale_product ctx w ew (unit_main t)
      and block_edge ij w ew (t : vnode) =
        if w = zero || ew = zero then v_zero
        else if v_is_terminal t then Vdd.terminal (Ctable.mul ct w ew)
        else if t.level < lowest_ctrl.(ij) then
          (* only identity levels below: the identity acts on the subtree *)
          ident_edge w ew t
        else Vdd.scale_product ctx w ew (unit_block ij t)
      and unit_block ij (v : vnode) =
        let k3 = k3_of (role_block ij) in
        if Compute_table.find table ~k1:v.vid ~k2:kind_id ~k3 then
          Compute_table.found table
        else begin
          let level = v.level in
          (* low before high, as in unit_main *)
          let r =
            match below.(ij).(level) with
            | Skip ->
              let low = block_edge ij one v.lw v.lt in
              let high = block_edge ij one v.hw v.ht in
              Vdd.make ctx level low high
            | Ctrl { active_high; ident_w; active_w } ->
              let inactive ew t =
                match ident_w with
                | None -> v_zero
                | Some w -> ident_edge w ew t
              in
              if active_high then begin
                let low = inactive v.lw v.lt in
                let high = block_edge ij active_w v.hw v.ht in
                Vdd.make ctx level low high
              end
              else begin
                let low = block_edge ij active_w v.lw v.lt in
                let high = inactive v.hw v.ht in
                Vdd.make ctx level low high
              end
          in
          Compute_table.store table ~k1:v.vid ~k2:kind_id ~k3 r;
          r
        end
      in
      main_edge w_root state.vw state.vt
    end
  end
