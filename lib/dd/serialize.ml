open Dd_complex
open Types

let float_repr x = Printf.sprintf "%.17g" x

(* --- vectors --------------------------------------------------------- *)

let vector_to_string ctx edge =
  let value w = Ctable.get ctx.Context.ctable w in
  let buf = Buffer.create 1024 in
  let nodes = ref [] in
  Vdd.iter_nodes (fun node -> nodes := node :: !nodes) edge;
  let ordered =
    List.sort (fun (a : vnode) (b : vnode) -> compare a.level b.level) !nodes
  in
  Buffer.add_string buf (Printf.sprintf "ddvec %d\n" (List.length ordered));
  let emit_child w (t : vnode) =
    let w = value w in
    Printf.sprintf "%s %s %d" (float_repr w.re) (float_repr w.im) t.vid
  in
  List.iter
    (fun node ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %d %s %s\n" node.vid node.level
           (emit_child node.lw node.lt) (emit_child node.hw node.ht)))
    ordered;
  let w = value edge.vw in
  Buffer.add_string buf
    (Printf.sprintf "root %s %s %d\n" (float_repr w.re) (float_repr w.im)
       edge.vt.vid);
  Buffer.contents buf

let tokens_of_line line =
  String.split_on_char ' ' line |> List.filter (fun t -> t <> "")

let parse_failure line message = Dd_error.malformed ~line message

let float_field line text =
  match float_of_string_opt text with
  | Some v -> v
  | None -> parse_failure line ("bad number " ^ text)

let int_field line text =
  match int_of_string_opt text with
  | Some v -> v
  | None -> parse_failure line ("bad integer " ^ text)

let vector_of_string ctx text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let table : (int, Vdd.edge) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.add table 0 (Vdd.terminal Ctable.one_tag);
  let edge_of line re im target =
    let w = Cnum.make (float_field line re) (float_field line im) in
    if Cnum.is_exact_zero w then v_zero
    else
      match Hashtbl.find_opt table (int_field line target) with
      | Some e -> Vdd.scale_tag ctx (Context.cnum ctx w) e
      | None -> parse_failure line "forward reference"
  in
  let root = ref None in
  List.iter
    (fun line ->
      match tokens_of_line line with
      | [ "ddvec"; _count ] -> ()
      | [ "node"; id; level; lre; lim; lt; hre; him; ht ] ->
        let low = edge_of line lre lim lt in
        let high = edge_of line hre him ht in
        let rebuilt = Vdd.make ctx (int_field line level) low high in
        Hashtbl.replace table (int_field line id) rebuilt
      | [ "root"; re; im; target ] -> root := Some (edge_of line re im target)
      | _ -> parse_failure line "unrecognised line")
    lines;
  match !root with
  | Some e -> e
  | None -> Dd_error.malformed "missing root line"

(* --- matrices --------------------------------------------------------- *)

let matrix_to_string ctx edge =
  let value w = Ctable.get ctx.Context.ctable w in
  let buf = Buffer.create 1024 in
  let nodes = ref [] in
  Mdd.iter_nodes (fun node -> nodes := node :: !nodes) edge;
  let ordered =
    List.sort (fun (a : mnode) (b : mnode) -> compare a.level b.level) !nodes
  in
  Buffer.add_string buf (Printf.sprintf "ddmat %d\n" (List.length ordered));
  let emit_child w (t : mnode) =
    let w = value w in
    Printf.sprintf "%s %s %d" (float_repr w.re) (float_repr w.im) t.mid
  in
  List.iter
    (fun node ->
      Buffer.add_string buf
        (Printf.sprintf "node %d %d %s %s %s %s\n" node.mid node.level
           (emit_child node.w00 node.t00) (emit_child node.w01 node.t01)
           (emit_child node.w10 node.t10) (emit_child node.w11 node.t11)))
    ordered;
  let w = value edge.mw in
  Buffer.add_string buf
    (Printf.sprintf "root %s %s %d\n" (float_repr w.re) (float_repr w.im)
       edge.mt.mid);
  Buffer.contents buf

let matrix_of_string ctx text =
  let lines =
    String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")
  in
  let table : (int, Mdd.edge) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.add table 0 (Mdd.terminal Ctable.one_tag);
  let edge_of line re im target =
    let w = Cnum.make (float_field line re) (float_field line im) in
    if Cnum.is_exact_zero w then m_zero
    else
      match Hashtbl.find_opt table (int_field line target) with
      | Some e -> Mdd.scale_tag ctx (Context.cnum ctx w) e
      | None -> parse_failure line "forward reference"
  in
  let root = ref None in
  List.iter
    (fun line ->
      match tokens_of_line line with
      | [ "ddmat"; _count ] -> ()
      | [ "node"; id; level; re00; im00; t00; re01; im01; t01; re10; im10;
          t10; re11; im11; t11 ] ->
        let e00 = edge_of line re00 im00 t00 in
        let e01 = edge_of line re01 im01 t01 in
        let e10 = edge_of line re10 im10 t10 in
        let e11 = edge_of line re11 im11 t11 in
        let rebuilt = Mdd.make ctx (int_field line level) e00 e01 e10 e11 in
        Hashtbl.replace table (int_field line id) rebuilt
      | [ "root"; re; im; target ] -> root := Some (edge_of line re im target)
      | _ -> parse_failure line "unrecognised line")
    lines;
  match !root with
  | Some e -> e
  | None -> Dd_error.malformed "missing root line"

(* --- files ------------------------------------------------------------ *)

(* write-to-temp + fsync + atomic rename: a crash mid-write can never
   leave a truncated DD file at the destination *)
let write_file path contents = Obs.Safe_io.write_file path contents

let read_file path =
  let ic = open_in path in
  let length = in_channel_length ic in
  let contents = really_input_string ic length in
  close_in ic;
  contents
