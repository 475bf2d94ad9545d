(* All fields are floats, so the record is stored flat: two unboxed
   doubles, no pointers. *)
type t = { re : float; im : float }

let zero = { re = 0.; im = 0. }
let one = { re = 1.; im = 0. }

let make re im = { re; im }
let of_float x = make x 0.
let of_polar r theta = make (r *. cos theta) (r *. sin theta)

let re z = z.re
let im z = z.im

let add a b = make (a.re +. b.re) (a.im +. b.im)
let sub a b = make (a.re -. b.re) (a.im -. b.im)

let mul a b =
  make ((a.re *. b.re) -. (a.im *. b.im)) ((a.re *. b.im) +. (a.im *. b.re))

let div a b =
  let d = (b.re *. b.re) +. (b.im *. b.im) in
  if d = 0. then raise Division_by_zero;
  make
    (((a.re *. b.re) +. (a.im *. b.im)) /. d)
    (((a.im *. b.re) -. (a.re *. b.im)) /. d)

let neg a = make (-.a.re) (-.a.im)
let conj a = make a.re (-.a.im)
let scale s a = make (s *. a.re) (s *. a.im)
let mag2 a = (a.re *. a.re) +. (a.im *. a.im)
let mag a = sqrt (mag2 a)

let default_tolerance = 1e-12

let approx_zero ?(tol = default_tolerance) a =
  abs_float a.re <= tol && abs_float a.im <= tol

let approx_equal ?(tol = default_tolerance) a b =
  abs_float (a.re -. b.re) <= tol && abs_float (a.im -. b.im) <= tol

let is_exact_zero a = a.re = 0. && a.im = 0.
let is_exact_one a = a.re = 1. && a.im = 0.

let compare_mag a b =
  let c = compare (mag2 a) (mag2 b) in
  if c <> 0 then c
  else
    let c = compare a.re b.re in
    if c <> 0 then c else compare a.im b.im

let to_string a = Printf.sprintf "%.10g%+.10gi" a.re a.im
let pp fmt a = Format.pp_print_string fmt (to_string a)
