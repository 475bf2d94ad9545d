open Dd_complex
open Types

let weight_label ?(annotate = false) w =
  if annotate then
    Printf.sprintf " [label=\"%s |w|=%.4g (2^%d)\"]" (Cnum.to_string w)
      (Cnum.mag w)
      (Obs.Dd_profile.bucket_exponent (Cnum.mag w))
  else if Cnum.is_exact_one w then ""
  else Printf.sprintf " [label=\"%s\"]" (Cnum.to_string w)

(* [rank=same] rows per level, with a plaintext level label, so annotated
   drawings line qubits up horizontally.  The label names both the level
   and the qubit it hosts under [order] — distinct once reordering is in
   play, and worth spelling out even for the identity order. *)
let add_level_ranks ~order buf by_level =
  let levels =
    Hashtbl.fold (fun level _ acc -> level :: acc) by_level []
    |> List.sort_uniq (fun a b -> compare b a)
  in
  List.iter
    (fun level ->
      let ids = Hashtbl.find_all by_level level in
      Buffer.add_string buf
        (Printf.sprintf
           "  level%d [shape=plaintext, label=\"level %d (qubit %d)\"];\n\
           \  { rank=same; level%d; %s }\n"
           level level
           (Order.qubit_of_level order level)
           level
           (String.concat "; " (List.rev ids))))
    levels

let vector_to_dot ?(name = "vector_dd") ?(annotate = false)
    ?(order = Order.identity) edge =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle];\n";
  Buffer.add_string buf "  terminal [shape=box, label=\"1\"];\n";
  let stub = ref 0 in
  let by_level = Hashtbl.create 64 in
  let edge_line src child style =
    if v_is_zero child then begin
      incr stub;
      Buffer.add_string buf
        (Printf.sprintf "  zero%d [shape=point];\n  %s -> zero%d%s;\n" !stub
           src !stub style)
    end
    else
      let dst =
        if v_is_terminal child.vt then "terminal"
        else Printf.sprintf "v%d" child.vt.vid
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s%s%s;\n" src dst style
           (weight_label ~annotate child.vw))
  in
  Vdd.iter_nodes
    (fun node ->
      let src = Printf.sprintf "v%d" node.vid in
      if annotate then Hashtbl.add by_level node.level src;
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"q%d\"];\n" src
           (Order.qubit_of_level order node.level));
      edge_line src node.v_low " [style=dashed]";
      edge_line src node.v_high "")
    edge;
  if not (v_is_zero edge) then begin
    let dst =
      if v_is_terminal edge.vt then "terminal"
      else Printf.sprintf "v%d" edge.vt.vid
    in
    Buffer.add_string buf
      (Printf.sprintf "  root [shape=none, label=\"\"];\n  root -> %s%s;\n"
         dst (weight_label ~annotate edge.vw))
  end;
  if annotate then add_level_ranks ~order buf by_level;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let matrix_to_dot ?(name = "matrix_dd") ?(annotate = false)
    ?(order = Order.identity) edge =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  Buffer.add_string buf "  node [shape=circle];\n";
  Buffer.add_string buf "  terminal [shape=box, label=\"1\"];\n";
  let stub = ref 0 in
  let by_level = Hashtbl.create 64 in
  let edge_line src quadrant child =
    if m_is_zero child then begin
      incr stub;
      Buffer.add_string buf
        (Printf.sprintf
           "  zero%d [shape=point];\n  %s -> zero%d [label=\"%s\"];\n" !stub
           src !stub quadrant)
    end
    else
      let dst =
        if m_is_terminal child.mt then "terminal"
        else Printf.sprintf "m%d" child.mt.mid
      in
      let wl =
        if annotate then
          Printf.sprintf ", %s |w|=%.4g (2^%d)" (Cnum.to_string child.mw)
            (Cnum.mag child.mw)
            (Obs.Dd_profile.bucket_exponent (Cnum.mag child.mw))
        else if Cnum.is_exact_one child.mw then ""
        else ", " ^ Cnum.to_string child.mw
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [label=\"%s%s\"];\n" src dst quadrant wl)
  in
  Mdd.iter_nodes
    (fun node ->
      let src = Printf.sprintf "m%d" node.mid in
      if annotate then Hashtbl.add by_level node.level src;
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"q%d\"];\n" src
           (Order.qubit_of_level order node.level));
      edge_line src "00" node.m00;
      edge_line src "01" node.m01;
      edge_line src "10" node.m10;
      edge_line src "11" node.m11)
    edge;
  if not (m_is_zero edge) then begin
    let dst =
      if m_is_terminal edge.mt then "terminal"
      else Printf.sprintf "m%d" edge.mt.mid
    in
    Buffer.add_string buf
      (Printf.sprintf "  root [shape=none, label=\"\"];\n  root -> %s%s;\n"
         dst (weight_label ~annotate edge.mw))
  end;
  if annotate then add_level_ranks ~order buf by_level;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
