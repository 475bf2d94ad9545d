open Dd_complex

type kind =
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | Sx
  | Sxdg
  | Sy
  | Sydg
  | Rx of float
  | Ry of float
  | Rz of float
  | Phase of float
  | Custom of { matrix : Cnum.t array; label : string }

type control = { qubit : int; positive : bool }
type t = { kind : kind; target : int; controls : control list }

let make ?(controls = []) kind target = { kind; target; controls }

let inv_sqrt2 = 1. /. sqrt 2.

let c re im = Cnum.make re im
let r x = Cnum.of_float x

let build_matrix = function
  | X -> [| Cnum.zero; Cnum.one; Cnum.one; Cnum.zero |]
  | Y -> [| Cnum.zero; c 0. (-1.); c 0. 1.; Cnum.zero |]
  | Z -> [| Cnum.one; Cnum.zero; Cnum.zero; r (-1.) |]
  | H -> [| r inv_sqrt2; r inv_sqrt2; r inv_sqrt2; r (-.inv_sqrt2) |]
  | S -> [| Cnum.one; Cnum.zero; Cnum.zero; c 0. 1. |]
  | Sdg -> [| Cnum.one; Cnum.zero; Cnum.zero; c 0. (-1.) |]
  | T -> [| Cnum.one; Cnum.zero; Cnum.zero; Cnum.of_polar 1. (Float.pi /. 4.) |]
  | Tdg ->
    [| Cnum.one; Cnum.zero; Cnum.zero; Cnum.of_polar 1. (-.Float.pi /. 4.) |]
  | Sx -> [| c 0.5 0.5; c 0.5 (-0.5); c 0.5 (-0.5); c 0.5 0.5 |]
  | Sxdg -> [| c 0.5 (-0.5); c 0.5 0.5; c 0.5 0.5; c 0.5 (-0.5) |]
  | Sy -> [| c 0.5 0.5; c (-0.5) (-0.5); c 0.5 0.5; c 0.5 0.5 |]
  | Sydg -> [| c 0.5 (-0.5); c 0.5 (-0.5); c (-0.5) 0.5; c 0.5 (-0.5) |]
  | Rx theta ->
    let ct = cos (theta /. 2.) and st = sin (theta /. 2.) in
    [| r ct; c 0. (-.st); c 0. (-.st); r ct |]
  | Ry theta ->
    let ct = cos (theta /. 2.) and st = sin (theta /. 2.) in
    [| r ct; r (-.st); r st; r ct |]
  | Rz theta ->
    [|
      Cnum.of_polar 1. (-.theta /. 2.); Cnum.zero; Cnum.zero;
      Cnum.of_polar 1. (theta /. 2.);
    |]
  | Phase theta ->
    [| Cnum.one; Cnum.zero; Cnum.zero; Cnum.of_polar 1. theta |]
  | Custom { matrix; label = _ } -> matrix

(* Per-kind memoisation of the 2x2 matrix, so the hot apply path does not
   re-allocate (and re-evaluate the trigonometry of) the same four complex
   numbers on every application.  Fixed kinds are keyed by a constructor
   index, parameterised rotations by (index, angle bits) — bit-exact, so
   two angles that differ in the last ulp stay distinct.  Custom gates
   already carry their array and bypass the cache (their label is not a
   trustworthy identity).  Callers must treat the result as read-only;
   every in-repo consumer copies before mutating.  The cache is reset if a
   parameter sweep ever accumulates more distinct angles than
   [matrix_cache_limit]. *)
type matrix_key = Fixed of int | Angle of int * int64

let matrix_key = function
  | X -> Some (Fixed 0)
  | Y -> Some (Fixed 1)
  | Z -> Some (Fixed 2)
  | H -> Some (Fixed 3)
  | S -> Some (Fixed 4)
  | Sdg -> Some (Fixed 5)
  | T -> Some (Fixed 6)
  | Tdg -> Some (Fixed 7)
  | Sx -> Some (Fixed 8)
  | Sxdg -> Some (Fixed 9)
  | Sy -> Some (Fixed 10)
  | Sydg -> Some (Fixed 11)
  | Rx theta -> Some (Angle (12, Int64.bits_of_float theta))
  | Ry theta -> Some (Angle (13, Int64.bits_of_float theta))
  | Rz theta -> Some (Angle (14, Int64.bits_of_float theta))
  | Phase theta -> Some (Angle (15, Int64.bits_of_float theta))
  | Custom _ -> None

let matrix_cache : (matrix_key, Cnum.t array) Hashtbl.t = Hashtbl.create 64
let matrix_cache_limit = 4096

let matrix kind =
  match matrix_key kind with
  | None -> build_matrix kind
  | Some key -> (
    match Hashtbl.find_opt matrix_cache key with
    | Some m -> m
    | None ->
      if Hashtbl.length matrix_cache >= matrix_cache_limit then
        Hashtbl.reset matrix_cache;
      let m = build_matrix kind in
      Hashtbl.add matrix_cache key m;
      m)

let adjoint_kind = function
  | X -> X
  | Y -> Y
  | Z -> Z
  | H -> H
  | S -> Sdg
  | Sdg -> S
  | T -> Tdg
  | Tdg -> T
  | Sx -> Sxdg
  | Sxdg -> Sx
  | Sy -> Sydg
  | Sydg -> Sy
  | Rx theta -> Rx (-.theta)
  | Ry theta -> Ry (-.theta)
  | Rz theta -> Rz (-.theta)
  | Phase theta -> Phase (-.theta)
  | Custom { matrix = m; label } ->
    Custom
      {
        matrix =
          [|
            Cnum.conj m.(0); Cnum.conj m.(2); Cnum.conj m.(1); Cnum.conj m.(3);
          |];
        label = label ^ "_dg";
      }

let adjoint gate = { gate with kind = adjoint_kind gate.kind }

let qubits gate = gate.target :: List.map (fun ctl -> ctl.qubit) gate.controls

let kind_name = function
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | Sx -> "sx"
  | Sxdg -> "sxdg"
  | Sy -> "sy"
  | Sydg -> "sydg"
  | Rx theta -> Printf.sprintf "rx(%.6g)" theta
  | Ry theta -> Printf.sprintf "ry(%.6g)" theta
  | Rz theta -> Printf.sprintf "rz(%.6g)" theta
  | Phase theta -> Printf.sprintf "p(%.6g)" theta
  | Custom { label; matrix = _ } -> label

let name gate =
  let prefix =
    String.concat ""
      (List.map (fun ctl -> if ctl.positive then "c" else "n") gate.controls)
  in
  prefix ^ kind_name gate.kind

let ctrl qubit = { qubit; positive = true }
let nctrl qubit = { qubit; positive = false }

let x target = make X target
let y target = make Y target
let z target = make Z target
let h target = make H target
let s target = make S target
let sdg target = make Sdg target
let t_gate target = make T target
let tdg target = make Tdg target
let sx target = make Sx target
let sy target = make Sy target
let rx theta target = make (Rx theta) target
let ry theta target = make (Ry theta) target
let rz theta target = make (Rz theta) target
let phase theta target = make (Phase theta) target
let cx control target = make ~controls:[ ctrl control ] X target
let cz control target = make ~controls:[ ctrl control ] Z target

let cphase theta control target =
  make ~controls:[ ctrl control ] (Phase theta) target

let ccx control1 control2 target =
  make ~controls:[ ctrl control1; ctrl control2 ] X target

let mcz controls target = make ~controls:(List.map ctrl controls) Z target

let pp fmt gate =
  Format.fprintf fmt "%s %s" (name gate)
    (String.concat ","
       (List.map string_of_int (qubits gate)))
