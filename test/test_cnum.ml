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
  check_bool "interned zero is the exact constant" true (z = Ctable.zero_tag);
  let o = Ctable.intern table (Cnum.make 1. 0.) in
  check_bool "interned one is the exact constant" true (o = Ctable.one_tag)

let test_intern_snaps_noise () =
  let table = Ctable.create () in
  let z = Ctable.intern table (Cnum.make 1e-13 (-1e-13)) in
  check_bool "FP noise snaps to exact zero" true
    (Cnum.is_exact_zero (Ctable.get table z));
  let o = Ctable.intern table (Cnum.make (1. -. 1e-12) 1e-13) in
  check_bool "near-one snaps to exact one" true
    (Cnum.is_exact_one (Ctable.get table o))

let test_intern_own_cell_before_constants () =
  (* the query's own cell is scanned before the cell holding a constant,
     so an earlier entry within tolerance wins over 0 or 1 *)
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 1.2e-12 0.) in
  check_int "1.2e-12 is a new entry" 2 a;
  let b = Ctable.intern table (Cnum.make 0.99e-12 0.) in
  check_bool "0.99e-12 returns the 1.2e-12 entry, not zero" true (a = b);
  let c = Ctable.intern table (Cnum.make (1. +. 1.4e-12) 0.) in
  check_int "1 + 1.4e-12 is a new entry" 3 c;
  let d = Ctable.intern table (Cnum.make (1. +. 0.6e-12) 0.) in
  check_bool "1 + 0.6e-12 returns the 1 + 1.4e-12 entry, not one" true
    (c = d);
  check_int "no further entries" 4 (Ctable.size table)

let test_intern_shares () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.25 0.75) in
  let b = Ctable.intern table (Cnum.make (0.25 +. 1e-12) 0.75) in
  check_bool "nearby values share one representative" true
    (Ctable.get table a = Ctable.get table b);
  check_int "same tag" a b

let test_intern_distinct () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.25 0.) in
  let b = Ctable.intern table (Cnum.make 0.5 0.) in
  check_bool "distinct values get distinct tags" true (a <> b)

let test_intern_idempotent () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.3 0.4) in
  let b = Ctable.intern table (Ctable.get table a) in
  check_bool "interning a canonical value is the identity" true (a = b)

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
  check_bool "boundary straddlers merge" true (a = b)

let test_foreign_tag_rejected () =
  let table = Ctable.create () in
  let rejects f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let unused = Ctable.size table in
  check_bool "a tag past size" true
    (rejects (fun () -> Ctable.get table unused));
  check_bool "a negative tag" true
    (rejects (fun () -> Ctable.mul table Ctable.one_tag (-1)))

(* Weight arithmetic computes in the table's unboxed arrays: once the
   results are interned, the hot operations allocate nothing. *)
let test_arithmetic_allocates_nothing () =
  let table = Ctable.create () in
  let a = Ctable.intern table (Cnum.make 0.6 0.8) in
  let b = Ctable.intern table (Cnum.make (-0.28) 0.96) in
  let s = Cnum.make 0.5 (-0.5) in
  let ops () =
    ignore (Sys.opaque_identity (Ctable.mul table a b));
    ignore (Sys.opaque_identity (Ctable.div table a b));
    ignore (Sys.opaque_identity (Ctable.add table a b));
    ignore (Sys.opaque_identity (Ctable.conj table a));
    ignore (Sys.opaque_identity (Ctable.conj_mul table a b));
    ignore (Sys.opaque_identity (Ctable.mul_value table s b));
    ignore (Sys.opaque_identity (Ctable.scale_product table a b a));
    ignore (Sys.opaque_identity (Ctable.pivot4 table a b Ctable.zero_tag a))
  in
  ops ();
  let size = Ctable.size table in
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ops ()
  done;
  let allocated = Gc.minor_words () -. before in
  check_int "no new weights" size (Ctable.size table);
  check_bool
    (Printf.sprintf "100k rounds of tag arithmetic allocated %.0f words"
       allocated)
    true (allocated < 256.)

(* -- QCheck: tag arithmetic uses Cnum's formulas ------------------------ *)

(* An operand component: any double in [-2, 2], an exact constant, or a
   value near zero that interning may snap to 0. *)
let operand_gen =
  let open QCheck.Gen in
  let component =
    frequency
      [
        (6, float_range (-2.) 2.);
        (1, oneofl [ 0.; -0.; 1.; -1. ]);
        (1, float_range (-1e-11) 1e-11);
      ]
  in
  map2 Cnum.make component component

let bits (z : Cnum.t) = (Int64.bits_of_float z.re, Int64.bits_of_float z.im)

(* [got] is what a tag operation returned when the table had [size]
   entries, [want] the value the Cnum function computes.  A fresh tag
   must hold [want] bit for bit; a result that merged with an existing
   entry must be the representative interning [want] finds. *)
let agrees table ~size got want =
  if Ctable.size table > size then
    got = size && bits (Ctable.get table got) = bits want
  else got = Ctable.intern table want

let prop_ops_match_cnum =
  let print (x, y, z) =
    String.concat ", "
      (List.map (fun (v : Cnum.t) -> Printf.sprintf "%h%+hi" v.re v.im)
         [ x; y; z ])
  in
  QCheck.Test.make ~name:"ctable ops match cnum" ~count:500
    (QCheck.make ~print QCheck.Gen.(triple operand_gen operand_gen operand_gen))
    (fun (x, y, z) ->
      let table = Ctable.create () in
      let a = Ctable.intern table x in
      let b = Ctable.intern table y in
      let c = Ctable.intern table z in
      let va = Ctable.get table a
      and vb = Ctable.get table b
      and vc = Ctable.get table c in
      let check name op want =
        let size = Ctable.size table in
        let got = op () in
        let v = Ctable.get table got in
        agrees table ~size got want
        || QCheck.Test.fail_reportf "%s gave tag %d (%h%+hi), Cnum gives %h%+hi"
             name got v.re v.im want.re want.im
      in
      let s = Cnum.mul va vb in
      let scale_product () =
        let got = Ctable.scale_product table a b c in
        if Cnum.is_exact_zero s then got = Ctable.zero_tag
        else if Cnum.is_exact_one s then got = c
        else check "scale_product" (fun () -> got) (Cnum.mul s vc)
      in
      let pivot () =
        let best = ref Ctable.zero_tag and mag = ref 0. in
        List.iter
          (fun (t, v) ->
            if Cnum.mag2 v > !mag then begin
              best := t;
              mag := Cnum.mag2 v
            end)
          [ (a, va); (b, vb); (c, vc); (a, va) ];
        Ctable.pivot4 table a b c a = !best
      in
      let div () =
        if Cnum.is_exact_zero vb then
          match Ctable.div table a b with
          | _ -> false
          | exception Division_by_zero -> true
        else check "div" (fun () -> Ctable.div table a b) (Cnum.div va vb)
      in
      check "mul" (fun () -> Ctable.mul table a b) (Cnum.mul va vb)
      && check "add" (fun () -> Ctable.add table a b) (Cnum.add va vb)
      && check "conj" (fun () -> Ctable.conj table a) (Cnum.conj va)
      && check "conj_mul"
           (fun () -> Ctable.conj_mul table a b)
           (Cnum.mul (Cnum.conj va) vb)
      && check "mul_value"
           (fun () -> Ctable.mul_value table z b)
           (Cnum.mul z vb)
      && div () && scale_product () && pivot ())

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
          let tag_got = Ctable.intern table (Cnum.make re im) in
          let got = Ctable.get table tag_got in
          let re', im', tag = Reference.intern model re im in
          if
            tag_got <> tag
            || not (Float.equal (Cnum.re got) re' && Float.equal (Cnum.im got) im')
          then
            QCheck.Test.fail_reportf
              "intern %h%+hi: table gave tag %d (%h%+hi), model tag %d (%h%+hi)"
              re im tag_got (Cnum.re got) (Cnum.im got) tag re' im')
        values;
      (* more than 4096 cells: the table grew past its initial slots *)
      Reference.distinct_cells model > 4096
      && Ctable.size table = model.Reference.next_tag)

(* -- QCheck: the chunked table against a list-based reference ---------- *)

(* The rule ctable.mli documents, read literally: of the entries within
   tolerance, the first in the scan order of cell offsets (own cell,
   edge neighbours, corners) wins, newest first within a cell; with no
   such entry the value gets the next tag.  Entries are one list, newest
   first. *)
module List_reference = struct
  type entry = { re : float; im : float; cre : int; cim : int; tag : int }
  type t = { tol : float; mutable entries : entry list; mutable size : int }

  let cell tol x = int_of_float (floor ((x /. tol) +. 0.5))

  let add t re im =
    let tag = t.size in
    t.entries <-
      { re; im; cre = cell t.tol re; cim = cell t.tol im; tag } :: t.entries;
    t.size <- tag + 1;
    tag

  let create tol =
    let t = { tol; entries = []; size = 0 } in
    ignore (add t 0. 0.);
    ignore (add t 1. 0.);
    t

  let order =
    [ (0, 0); (-1, 0); (1, 0); (0, -1); (0, 1);
      (-1, -1); (-1, 1); (1, -1); (1, 1) ]

  let intern t re im =
    let within e =
      abs_float (e.re -. re) <= t.tol && abs_float (e.im -. im) <= t.tol
    in
    let matches = List.filter within t.entries in
    let cre = cell t.tol re and cim = cell t.tol im in
    let in_cell (di, dj) =
      List.find_opt (fun e -> e.cre = cre + di && e.cim = cim + dj) matches
    in
    match List.find_map in_cell order with
    | Some e -> e.tag
    | None -> add t re im
end

(* A stream of values to intern, each drawn as one of: a fresh value,
   an exact repeat of an earlier one, a near-duplicate of an earlier one
   at 0.5-1.5 tolerances per component, a value on a cell edge that is
   also a block edge (cells 16m + 7 and 16m + 8 border two blocks), and
   the constants +-0 and 1. *)
type draw =
  | Fresh of float * float
  | Repeat of int
  | Near of int * float * float
  | Edge of int * float * float
  | Constant of float * float

let draw_gen =
  let open QCheck.Gen in
  let offset =
    map2 (fun s u -> if s then u else -.u) bool (float_range 0.5 1.5)
  in
  frequency
    [
      (14, map2 (fun re im -> Fresh (re, im)) (float_range (-1.) 1.)
             (float_range (-1.) 1.));
      (2, map (fun i -> Repeat i) nat);
      ( 3,
        map3 (fun i dre dim -> Near (i, dre, dim)) nat offset
          (oneof [ offset; return 0. ]) );
      ( 3,
        map3 (fun m e im -> Edge (m, e, im)) (-40 -- 40)
          (oneofl [ -0.5; 0.5; -0.49; 0.49; -0.51; 0.51 ])
          (oneof [ float_range (-1.) 1.; return 0. ]) );
      ( 1,
        oneofl
          [ Constant (0., 0.); Constant (-0., 0.); Constant (0., -0.);
            Constant (-0., -0.); Constant (1., 0.); Constant (1., -0.) ] );
    ]

(* The values a draw list stands for, in order, at tolerance [tol]. *)
let values_of tol draws =
  let values = Array.make (List.length draws) (0., 0.) in
  List.iteri
    (fun n draw ->
      let earlier i = values.(i mod max 1 n) in
      values.(n) <-
        (match draw with
        | Fresh (re, im) | Constant (re, im) -> (re, im)
        | Repeat i -> earlier i
        | Near (i, dre, dim) ->
          let re, im = earlier i in
          (re +. (dre *. tol), im +. (dim *. tol))
        | Edge (m, e, im) ->
          ((float_of_int ((16 * m) + 8) +. e) *. tol, im)))
    draws;
  Array.to_list values

let prop_matches_list_reference =
  let tol = 1e-12 in
  let chunk = 256 in
  QCheck.Test.make ~name:"ctable matches list reference (default tol)"
    ~count:4
    (QCheck.make
       ~print:(fun draws -> Printf.sprintf "%d draws" (List.length draws))
       QCheck.Gen.(int_range 4_000 4_500 >>= fun n -> list_repeat n draw_gen))
    (fun draws ->
      let table = Ctable.create () in
      let model = List_reference.create tol in
      List.iter
        (fun (re, im) ->
          let got = Ctable.intern table (Cnum.make re im) in
          let want = List_reference.intern model re im in
          if got <> want then
            QCheck.Test.fail_reportf "intern %h%+hi: table tag %d, rule tag %d"
              re im got want)
        (values_of tol draws);
      (* the stream crossed at least ten chunk boundaries *)
      Ctable.size table = model.List_reference.size
      && Ctable.size table > 10 * chunk)

(* The shortcut operands: a finite value, or one the shortcuts must leave
   to the lookup (infinite, NaN, or so large that |a|^2 overflows). *)
let shortcut_operand_gen =
  let open QCheck.Gen in
  frequency
    [
      (6, operand_gen);
      ( 1,
        oneofl
          [ Cnum.make 1e155 0.; Cnum.make 0. (-1e160); Cnum.make infinity 0.;
            Cnum.make 0.5 neg_infinity; Cnum.make nan 1.; Cnum.make 1e-170 0. ]
      );
    ]

let prop_shortcuts_match_intern =
  QCheck.Test.make ~name:"ctable div/mul shortcuts match intern" ~count:500
    (QCheck.make
       ~print:(fun (x : Cnum.t) -> Printf.sprintf "%h%+hi" x.re x.im)
       shortcut_operand_gen)
    (fun x ->
      let table = Ctable.create () in
      ignore (Ctable.intern table (Cnum.make 0.6 0.8));
      let a = Ctable.intern table x in
      let va = Ctable.get table a and one = Ctable.one_tag in
      let check name op want =
        let size = Ctable.size table in
        match op () with
        | got ->
          agrees table ~size got want
          || QCheck.Test.fail_reportf "%s gave tag %d, intern of Cnum gives %d"
               name got (Ctable.intern table want)
        | exception Division_by_zero ->
          QCheck.Test.fail_reportf "%s raised Division_by_zero" name
      in
      let div_self () =
        match Cnum.div va va with
        | want -> check "div a a" (fun () -> Ctable.div table a a) want
        | exception Division_by_zero -> (
          match Ctable.div table a a with
          | _ -> false
          | exception Division_by_zero -> true)
      in
      div_self ()
      && check "div a one" (fun () -> Ctable.div table a one)
           (Cnum.div va Cnum.one)
      && check "mul one a" (fun () -> Ctable.mul table one a)
           (Cnum.mul Cnum.one va)
      && check "mul a one" (fun () -> Ctable.mul table a one)
           (Cnum.mul va Cnum.one))

let test_div_zero_zero_raises () =
  let table = Ctable.create () in
  let z = Ctable.zero_tag in
  Alcotest.check_raises "div zero zero" Division_by_zero (fun () ->
      ignore (Ctable.div table z z));
  Alcotest.check_raises "div one zero" Division_by_zero (fun () ->
      ignore (Ctable.div table Ctable.one_tag z));
  let rejects f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  let unused = Ctable.size table in
  check_bool "div of a non-tag by itself" true
    (rejects (fun () -> Ctable.div table unused unused));
  check_bool "mul of a non-tag by one" true
    (rejects (fun () -> Ctable.mul table unused Ctable.one_tag))

(* [bytes] counts every block reachable from the table, so it must equal
   what the runtime finds there, fresh and after the chunks and the
   heads have grown. *)
let test_bytes_are_reachable_words () =
  let table = Ctable.create () in
  let reachable () = 8 * Obj.reachable_words (Obj.repr table) in
  check_int "fresh table" (reachable ()) (Ctable.bytes table);
  for i = 1 to 5_000 do
    ignore (Ctable.intern table (Cnum.make (float_of_int i /. 7.) 0.5));
    if i = 300 || i = 1_000 then
      check_int (Printf.sprintf "after %d values" i) (reachable ())
        (Ctable.bytes table)
  done;
  check_int "5000 values" 5_002 (Ctable.size table);
  check_int "after 5000 values" (reachable ()) (Ctable.bytes table)

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
    Alcotest.test_case "foreign_tag_rejected" `Quick
      test_foreign_tag_rejected;
    Alcotest.test_case "arithmetic_allocates_nothing" `Quick
      test_arithmetic_allocates_nothing;
    Alcotest.test_case "div_zero_zero_raises" `Quick test_div_zero_zero_raises;
    Alcotest.test_case "bytes_are_reachable_words" `Quick
      test_bytes_are_reachable_words;
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_ops_match_cnum;
        prop_matches_reference ~name:"ctable matches reference (tol 1e-12)"
          1e-12;
        prop_matches_reference ~name:"ctable matches reference (tol 1e-6)" 1e-6;
        prop_matches_list_reference;
        prop_shortcuts_match_intern;
      ]
