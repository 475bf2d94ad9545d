open Dd_complex
open Util

let test_add () =
  check_cnum "1 + i" (Cnum.make 1. 1.)
    (Cnum.add Cnum.one (Cnum.make 0. 1.))

let test_sub () =
  check_cnum "(3+2i) - (1+5i)" (Cnum.make 2. (-3.))
    (Cnum.sub (Cnum.make 3. 2.) (Cnum.make 1. 5.))

let test_mul () =
  check_cnum "(1+i)(1-i) = 2" (Cnum.make 2. 0.)
    (Cnum.mul (Cnum.make 1. 1.) (Cnum.make 1. (-1.)));
  check_cnum "i*i = -1" (Cnum.make (-1.) 0.)
    (Cnum.mul (Cnum.make 0. 1.) (Cnum.make 0. 1.))

let test_div () =
  let a = Cnum.make 3. 7. and b = Cnum.make (-2.) 0.5 in
  check_cnum "a/b*b = a" a (Cnum.mul (Cnum.div a b) b)

let test_div_by_zero () =
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Cnum.div Cnum.one Cnum.zero))

let test_conj () =
  check_cnum "conj" (Cnum.make 2. (-3.)) (Cnum.conj (Cnum.make 2. 3.))

let test_neg () =
  check_cnum "neg" (Cnum.make (-2.) 3.) (Cnum.neg (Cnum.make 2. (-3.)))

let test_scale () =
  check_cnum "scale" (Cnum.make 3. (-1.5)) (Cnum.scale 1.5 (Cnum.make 2. (-1.)))

let test_mag () =
  check_float "mag2 of 3+4i" 25. (Cnum.mag2 (Cnum.make 3. 4.));
  check_float "mag of 3+4i" 5. (Cnum.mag (Cnum.make 3. 4.))

let test_polar () =
  check_cnum "polar pi/2" (Cnum.make 0. 1.) (Cnum.of_polar 1. (Float.pi /. 2.));
  check_cnum "polar pi" (Cnum.make (-1.) 0.) (Cnum.of_polar 1. Float.pi)

let test_approx () =
  check_bool "approx zero" true (Cnum.approx_zero (Cnum.make 1e-15 (-1e-14)));
  check_bool "not approx zero" false (Cnum.approx_zero (Cnum.make 1e-3 0.));
  check_bool "approx equal" true
    (Cnum.approx_equal (Cnum.make 1. 1.) (Cnum.make (1. +. 1e-14) 1.))

let test_exact_flags () =
  check_bool "exact zero" true (Cnum.is_exact_zero Cnum.zero);
  check_bool "exact one" true (Cnum.is_exact_one Cnum.one);
  check_bool "tiny is not exact zero" false
    (Cnum.is_exact_zero (Cnum.make 1e-30 0.))

let test_compare_mag () =
  check_bool "larger magnitude wins" true
    (Cnum.compare_mag (Cnum.make 2. 0.) (Cnum.make 1. 1.) > 0);
  check_bool "ties broken by re" true
    (Cnum.compare_mag (Cnum.make 0. 1.) (Cnum.make 1. 0.) < 0)

let test_intern_constants () =
  let table = Ctable.create () in
  let z = Ctable.intern table (Cnum.make 0. 0.) in
  check_bool "interned zero is the exact constant" true (z == Cnum.zero);
  let o = Ctable.intern table (Cnum.make 1. 0.) in
  check_bool "interned one is the exact constant" true (o == Cnum.one)

let test_intern_snaps_noise () =
  let table = Ctable.create () in
  let z = Ctable.intern table (Cnum.make 1e-13 (-1e-13)) in
  check_bool "FP noise snaps to exact zero" true (Cnum.is_exact_zero z);
  let o = Ctable.intern table (Cnum.make (1. -. 1e-12) 1e-13) in
  check_bool "near-one snaps to exact one" true (Cnum.is_exact_one o)

let test_intern_own_cell_before_constants () =
  (* the query's own cell is scanned before the cell holding a constant,
     so an earlier entry within tolerance wins over 0 or 1 *)
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 1.2e-12 0.) in
  check_int "1.2e-12 is a new entry" 2 (Cnum.tag a);
  let b = Ctable.intern table (Cnum.make 0.99e-12 0.) in
  check_bool "0.99e-12 returns the 1.2e-12 entry, not zero" true (a == b);
  let c = Ctable.intern table (Cnum.make (1. +. 1.4e-12) 0.) in
  check_int "1 + 1.4e-12 is a new entry" 3 (Cnum.tag c);
  let d = Ctable.intern table (Cnum.make (1. +. 0.6e-12) 0.) in
  check_bool "1 + 0.6e-12 returns the 1 + 1.4e-12 entry, not one" true
    (c == d);
  check_int "no further entries" 4 (Ctable.size table)

let test_intern_shares () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.25 0.75) in
  let b = Ctable.intern table (Cnum.make (0.25 +. 1e-12) 0.75) in
  check_bool "nearby values share one representative" true (a == b);
  check_int "same tag" (Cnum.tag a) (Cnum.tag b)

let test_intern_distinct () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.25 0.) in
  let b = Ctable.intern table (Cnum.make 0.5 0.) in
  check_bool "distinct values get distinct tags" true
    (Cnum.tag a <> Cnum.tag b)

let test_intern_idempotent () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.3 0.4) in
  let b = Ctable.intern table a in
  check_bool "interning a canonical value is the identity" true (a == b)

let test_table_size () =
  let table = Ctable.create () in
  let initial = Ctable.size table in
  ignore (Ctable.intern table (Cnum.make 0.123 0.));
  ignore (Ctable.intern table (Cnum.make 0.123 0.));
  check_int "size grows once per distinct value" (initial + 1)
    (Ctable.size table)

let test_bucket_boundary () =
  (* values straddling a bucket boundary but within tolerance must merge *)
  let table = Ctable.create ~tolerance:1e-6 () in
  let a = Ctable.intern table (Cnum.make (1.5e-6 +. 4.9e-7) 0.) in
  let b = Ctable.intern table (Cnum.make (1.5e-6 -. 4.9e-7) 0.) in
  check_bool "boundary straddlers merge" true (a == b)

(* -- QCheck: the table against a reference model ---------------------- *)

(* The table's semantics written the plainest way: a Hashtbl from cell
   coordinates to that cell's entries, newest first, scanned own cell,
   then edge neighbours, then corners; the first entry within tolerance
   wins, otherwise the value gets the next tag. *)
module Reference = struct
  type t = {
    tol : float;
    cells : (int * int, float * float * int) Hashtbl.t;
    mutable next_tag : int;
  }

  let coord tol x = int_of_float (floor ((x /. tol) +. 0.5))

  let add t re im tag =
    Hashtbl.add t.cells (coord t.tol re, coord t.tol im) (re, im, tag)

  let create tol =
    let t = { tol; cells = Hashtbl.create 64; next_tag = 2 } in
    add t 0. 0. 0;
    add t 1. 0. 1;
    t

  let order =
    [ (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1);
      (-1, -1); (-1, 1); (1, -1); (1, 1) ]

  let within t re im (re', im', _) =
    abs_float (re' -. re) <= t.tol && abs_float (im' -. im) <= t.tol

  (* [Hashtbl.find_all] lists a key's bindings newest first *)
  let intern t re im =
    let bre = coord t.tol re and bim = coord t.tol im in
    let found =
      List.find_map
        (fun (di, dj) ->
          List.find_opt (within t re im)
            (Hashtbl.find_all t.cells (bre + di, bim + dj)))
        order
    in
    match found with
    | Some entry -> entry
    | None ->
      let tag = t.next_tag in
      t.next_tag <- tag + 1;
      add t re im tag;
      (re, im, tag)

  let distinct_cells t =
    let seen = Hashtbl.create 64 in
    Hashtbl.iter (fun key _ -> Hashtbl.replace seen key ()) t.cells;
    Hashtbl.length seen
end

(* One component, in units of the tolerance: near a cell boundary of a
   wide or a narrow range of cells, or near 0, 1 or -1. *)
let component_gen tol =
  let open QCheck.Gen in
  let near_edge =
    oneofl [ -0.49; 0.49; -0.5; 0.5; -0.51; 0.51 ] >|= fun e ->
    fun k -> (float_of_int k +. e) *. tol
  in
  frequency
    [
      (4, map2 (fun at k -> at k) near_edge (-3000 -- 3000));
      (3, map2 (fun at k -> at k) near_edge (-4 -- 4));
      (1, float_range (-3.) 3. >|= fun u -> u *. tol);
      (1, float_range (-3.) 3. >|= fun u -> 1. +. (u *. tol));
      (1, float_range (-3.) 3. >|= fun u -> -1. +. (u *. tol));
      (1, float_range (-1.) 1.);
    ]

let stream_arb tol =
  let open QCheck.Gen in
  let value = pair (component_gen tol) (component_gen tol) in
  QCheck.make
    ~print:(fun values ->
      Printf.sprintf "%d values, first %s" (List.length values)
        (match values with
        | (re, im) :: _ -> Printf.sprintf "%h%+hi" re im
        | [] -> "-"))
    (int_range 9_000 12_000 >>= fun n -> list_repeat n value)

let prop_matches_reference ~name tolerance =
  QCheck.Test.make ~name ~count:8 (stream_arb tolerance) (fun values ->
      let table = Ctable.create ~tolerance () in
      let model = Reference.create tolerance in
      List.iter
        (fun (re, im) ->
          let got = Ctable.intern table (Cnum.make re im) in
          let re', im', tag = Reference.intern model re im in
          if
            Cnum.tag got <> tag
            || not (Float.equal (Cnum.re got) re' && Float.equal (Cnum.im got) im')
          then
            QCheck.Test.fail_reportf
              "intern %h%+hi: table gave tag %d (%h%+hi), model tag %d (%h%+hi)"
              re im (Cnum.tag got) (Cnum.re got) (Cnum.im got) tag re' im')
        values;
      (* more than 4096 cells: the table grew past its initial slots *)
      Reference.distinct_cells model > 4096
      && Ctable.size table = model.Reference.next_tag)

let suite =
  [
    Alcotest.test_case "add" `Quick test_add;
    Alcotest.test_case "sub" `Quick test_sub;
    Alcotest.test_case "mul" `Quick test_mul;
    Alcotest.test_case "div" `Quick test_div;
    Alcotest.test_case "div_by_zero" `Quick test_div_by_zero;
    Alcotest.test_case "conj" `Quick test_conj;
    Alcotest.test_case "neg" `Quick test_neg;
    Alcotest.test_case "scale" `Quick test_scale;
    Alcotest.test_case "mag" `Quick test_mag;
    Alcotest.test_case "polar" `Quick test_polar;
    Alcotest.test_case "approx" `Quick test_approx;
    Alcotest.test_case "exact_flags" `Quick test_exact_flags;
    Alcotest.test_case "compare_mag" `Quick test_compare_mag;
    Alcotest.test_case "intern_constants" `Quick test_intern_constants;
    Alcotest.test_case "intern_snaps_noise" `Quick test_intern_snaps_noise;
    Alcotest.test_case "intern_shares" `Quick test_intern_shares;
    Alcotest.test_case "intern_distinct" `Quick test_intern_distinct;
    Alcotest.test_case "intern_idempotent" `Quick test_intern_idempotent;
    Alcotest.test_case "table_size" `Quick test_table_size;
    Alcotest.test_case "bucket_boundary" `Quick test_bucket_boundary;
    Alcotest.test_case "intern_own_cell_before_constants" `Quick
      test_intern_own_cell_before_constants;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_matches_reference ~name:"ctable matches reference (tol 1e-12)"
          1e-12;
        prop_matches_reference ~name:"ctable matches reference (tol 1e-6)" 1e-6;
      ]
