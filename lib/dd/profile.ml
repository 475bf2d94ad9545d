open Dd_complex
open Types

(* Per-level accumulator shared by the vector and matrix walks. *)
type acc = {
  mutable a_nodes : int;
  mutable a_edges : int;
  mutable a_zero : int;
  buckets : (int, int) Hashtbl.t;  (* log2 magnitude exponent -> count *)
}

let fresh_acc () =
  { a_nodes = 0; a_edges = 0; a_zero = 0; buckets = Hashtbl.create 8 }

let acc_for table level =
  match Hashtbl.find_opt table level with
  | Some acc -> acc
  | None ->
    let acc = fresh_acc () in
    Hashtbl.add table level acc;
    acc

let note_weight ctx acc w =
  let exponent =
    Obs.Dd_profile.bucket_exponent (sqrt (Ctable.mag2 ctx.Context.ctable w))
  in
  let count =
    match Hashtbl.find_opt acc.buckets exponent with
    | Some c -> c
    | None -> 0
  in
  Hashtbl.replace acc.buckets exponent (count + 1)

let finish_levels ~order table =
  Hashtbl.fold
    (fun level acc out ->
      {
        Obs.Dd_profile.level;
        qubit = Order.qubit_of_level order level;
        nodes = acc.a_nodes;
        edges = acc.a_edges;
        zero_edges = acc.a_zero;
        weights =
          Hashtbl.fold (fun e c l -> (e, c) :: l) acc.buckets []
          |> List.sort (fun (a, _) (b, _) -> compare a b);
      }
      :: out)
    table []
  |> List.sort (fun a b ->
         compare b.Obs.Dd_profile.level a.Obs.Dd_profile.level)

let build ~gate ~t ~dd ~nodes ~edges ~references ~identity_nodes levels =
  {
    Obs.Dd_profile.gate_index = gate;
    t;
    dd;
    nodes;
    edges;
    sharing =
      (if nodes = 0 then 1.
       else float_of_int references /. float_of_int nodes);
    identity_fraction =
      (if nodes = 0 then 0.
       else float_of_int identity_nodes /. float_of_int nodes);
    levels;
  }

let vector ?(gate = -1) ?(t = 0.) ?(order = Order.identity) ctx edge =
  let table = Hashtbl.create 32 in
  let nodes = ref 0 in
  let edges = ref 0 in
  let references = ref 0 in
  let identity_nodes = ref 0 in
  let note_edge acc (child : vedge) =
    if v_is_zero child then acc.a_zero <- acc.a_zero + 1
    else begin
      acc.a_edges <- acc.a_edges + 1;
      incr edges;
      note_weight ctx acc child.vw;
      if not (v_is_terminal child.vt) then incr references
    end
  in
  Vdd.iter_nodes
    (fun node ->
      incr nodes;
      let acc = acc_for table node.level in
      acc.a_nodes <- acc.a_nodes + 1;
      let low = v_low node and high = v_high node in
      note_edge acc low;
      note_edge acc high;
      if v_edge_equal low high then incr identity_nodes)
    edge;
  (* the root edge is an edge too: it contributes to the edge total and
     to the in-degree of the root node *)
  if not (v_is_zero edge) then begin
    incr edges;
    if not (v_is_terminal edge.vt) then incr references
  end;
  build ~gate ~t ~dd:"vector" ~nodes:!nodes ~edges:!edges
    ~references:!references ~identity_nodes:!identity_nodes
    (finish_levels ~order table)

let matrix ?(gate = -1) ?(t = 0.) ?(order = Order.identity) ctx edge =
  let table = Hashtbl.create 32 in
  let nodes = ref 0 in
  let edges = ref 0 in
  let references = ref 0 in
  let identity_nodes = ref 0 in
  let note_edge acc (child : medge) =
    if m_is_zero child then acc.a_zero <- acc.a_zero + 1
    else begin
      acc.a_edges <- acc.a_edges + 1;
      incr edges;
      note_weight ctx acc child.mw;
      if not (m_is_terminal child.mt) then incr references
    end
  in
  Mdd.iter_nodes
    (fun node ->
      incr nodes;
      let acc = acc_for table node.level in
      acc.a_nodes <- acc.a_nodes + 1;
      let q00 = m_child node 0 and q01 = m_child node 1 in
      let q10 = m_child node 2 and q11 = m_child node 3 in
      note_edge acc q00;
      note_edge acc q01;
      note_edge acc q10;
      note_edge acc q11;
      if m_edge_equal q00 q11 && m_is_zero q01 && m_is_zero q10 then
        incr identity_nodes)
    edge;
  if not (m_is_zero edge) then begin
    incr edges;
    if not (m_is_terminal edge.mt) then incr references
  end;
  build ~gate ~t ~dd:"matrix" ~nodes:!nodes ~edges:!edges
    ~references:!references ~identity_nodes:!identity_nodes
    (finish_levels ~order table)

let pp ppf (s : Obs.Dd_profile.snapshot) =
  Format.fprintf ppf
    "%s DD: %d nodes, %d edges, sharing %.3f, identity fraction %.3f@."
    s.dd s.nodes s.edges s.sharing s.identity_fraction;
  Format.fprintf ppf "%8s %8s %8s %8s %8s  %s@." "level" "qubit" "nodes"
    "edges" "zeroes" "weight |w| log2 histogram";
  List.iter
    (fun (l : Obs.Dd_profile.level) ->
      let histogram =
        String.concat " "
          (List.map
             (fun (e, c) -> Printf.sprintf "2^%d:%d" e c)
             l.weights)
      in
      Format.fprintf ppf "%8d %8s %8d %8d %8d  %s@." l.level
        (Printf.sprintf "q%d" l.qubit)
        l.nodes l.edges l.zero_edges histogram)
    s.levels
