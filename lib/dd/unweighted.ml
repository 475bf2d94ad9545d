open Dd_complex
open Types

type node =
  | Leaf of { value : Cnum.t; leaf_id : int }
  | Branch of { id : int; level : int; low : node; high : node }

type t = { root : node; nodes : int; leaves : int }

let node_id = function Leaf { leaf_id; _ } -> -1 - leaf_id | Branch { id; _ } -> id

(* Conversion pushes the accumulated path weight towards the terminals;
   hash-consing uses (level, child ids) for branches and the canonical
   weight tag for leaves, so sharing happens exactly when sub-vectors are
   equal — not merely proportional.  A leaf keeps its tag's value, so the
   result reads without the context. *)
let of_vdd ctx edge =
  let ct = ctx.Context.ctable in
  let leaf_table : (int, node) Hashtbl.t = Hashtbl.create 256 in
  let branch_table : (int * int * int, node) Hashtbl.t = Hashtbl.create 256 in
  let memo : (int * int, node) Hashtbl.t = Hashtbl.create 1024 in
  let next_leaf = ref 0 in
  let next_branch = ref 0 in
  let leaf w =
    match Hashtbl.find_opt leaf_table w with
    | Some node -> node
    | None ->
      let node = Leaf { value = Ctable.get ct w; leaf_id = !next_leaf } in
      incr next_leaf;
      Hashtbl.add leaf_table w node;
      node
  in
  let branch level low high =
    let key = (level, node_id low, node_id high) in
    match Hashtbl.find_opt branch_table key with
    | Some node -> node
    | None ->
      let node = Branch { id = !next_branch; level; low; high } in
      incr next_branch;
      Hashtbl.add branch_table key node;
      node
  in
  let rec convert (vnode : vnode) weight =
    if v_is_terminal vnode then leaf weight
    else
      let key = (vnode.vid, weight) in
      match Hashtbl.find_opt memo key with
      | Some node -> node
      | None ->
        let child w t =
          if w = Ctable.zero_tag then zero_subtree (vnode.level - 1)
          else convert t (Ctable.mul ct weight w)
        in
        let node =
          branch vnode.level (child vnode.lw vnode.lt) (child vnode.hw vnode.ht)
        in
        Hashtbl.replace memo key node;
        node
  and zero_subtree level =
    if level < 0 then leaf Ctable.zero_tag
    else
      let below = zero_subtree (level - 1) in
      branch level below below
  in
  let root =
    if v_is_zero edge then
      (* an all-zero vector of unknown height: represent as single leaf *)
      leaf Ctable.zero_tag
    else convert edge.vt edge.vw
  in
  { root; nodes = !next_branch; leaves = !next_leaf }

let node_count t = t.nodes
let leaf_count t = t.leaves
let total_count t = t.nodes + t.leaves

let to_array t ~n =
  if n > 20 then invalid_arg "Unweighted.to_array: too many qubits";
  let out = Array.make (1 lsl n) Cnum.zero in
  let rec fill node offset =
    match node with
    | Leaf { value; _ } -> out.(offset) <- value
    | Branch { level; low; high; _ } ->
      fill low offset;
      fill high (offset + (1 lsl level))
  in
  fill t.root 0;
  out
