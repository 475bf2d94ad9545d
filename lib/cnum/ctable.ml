(* A tolerance cell: every canonical value whose components round to
   [(bre, bim)] in units of the tolerance, newest first.  Cells are never
   removed, so a slot once filled stays filled. *)
type cell = { bre : int; bim : int; mutable entries : Cnum.t list }

type t = {
  tolerance : float;
  (* open-addressed index of the cells: linear probing from [hash bre bim],
     [empty] marks a free slot, and [grow] keeps the load factor at or
     below 1/2 so every probe ends at a free slot *)
  mutable slots : cell array;
  mutable cells : int;
  mutable next_tag : int;
}

let zero_tag = 0
let one_tag = 1
let initial_slots = 4096

(* The free-slot marker and the "no entry within tolerance" answer; both
   are compared physically, never structurally. *)
let empty = { bre = 0; bim = 0; entries = [] }
let missing = Cnum.make Float.nan Float.nan

let cell_coord table x = int_of_float (floor ((x /. table.tolerance) +. 0.5))

let hash bre bim =
  let h = (bre * 0x2545F4914F6CDD1D) lxor (bim * 0x1B873593) in
  h lxor (h lsr 29)

(* Index of the slot holding cell [(bre, bim)], or of the free slot where
   it would go. *)
let rec slot_index slots mask bre bim i =
  let c = Array.unsafe_get slots i in
  if c == empty || (c.bre = bre && c.bim = bim) then i
  else slot_index slots mask bre bim ((i + 1) land mask)

let slot_of slots bre bim =
  let mask = Array.length slots - 1 in
  slot_index slots mask bre bim (hash bre bim land mask)

let find_cell table bre bim =
  let slots = table.slots in
  Array.unsafe_get slots (slot_of slots bre bim)

let grow table =
  let old = table.slots in
  let slots = Array.make (2 * Array.length old) empty in
  Array.iter
    (fun c -> if c != empty then slots.(slot_of slots c.bre c.bim) <- c)
    old;
  table.slots <- slots

let add_entry table bre bim z =
  let slots = table.slots in
  let i = slot_of slots bre bim in
  let c = Array.unsafe_get slots i in
  if c == empty then begin
    slots.(i) <- { bre; bim; entries = [ z ] };
    table.cells <- table.cells + 1;
    if 2 * table.cells > Array.length slots then grow table
  end
  else c.entries <- z :: c.entries

let create ?(tolerance = 1e-12) () =
  let table =
    {
      tolerance;
      slots = Array.make initial_slots empty;
      cells = 0;
      next_tag = 2;
    }
  in
  let register z =
    add_entry table (cell_coord table z.Cnum.re) (cell_coord table z.Cnum.im) z
  in
  register Cnum.zero;
  register Cnum.one;
  table

let tolerance table = table.tolerance

(* [Cnum.approx_equal] written out: passing its optional [~tol] would box
   the tolerance on every probe. *)
let rec scan tol (z : Cnum.t) = function
  | [] -> missing
  | (c : Cnum.t) :: rest ->
    if abs_float (c.re -. z.re) <= tol && abs_float (c.im -. z.im) <= tol
    then c
    else scan tol z rest

(* A value within [tolerance] of the query may live in a cell adjacent to
   the query's own cell, so all nine neighbours are scanned: own cell
   first, then the edge neighbours, then the corners.  The first entry
   within tolerance in that order wins, which fixes every representative
   (and so every tag) a stream of interns produces. *)
let neighbour_re = [| 0; -1; 1; 0; 0; -1; -1; 1; 1 |]
let neighbour_im = [| 0; 0; 0; -1; 1; -1; 1; -1; 1 |]

let rec find_existing table z bre bim d =
  if d = 9 then missing
  else
    let c =
      find_cell table
        (bre + Array.unsafe_get neighbour_re d)
        (bim + Array.unsafe_get neighbour_im d)
    in
    let found = scan table.tolerance z c.entries in
    if found != missing then found else find_existing table z bre bim (d + 1)

let intern table z =
  if Cnum.tag z >= 0 then z
  else
    let bre = cell_coord table z.Cnum.re and bim = cell_coord table z.Cnum.im in
    let found = find_existing table z bre bim 0 in
    if found != missing then found
    else begin
      let tag = table.next_tag in
      table.next_tag <- tag + 1;
      let canonical = Cnum.with_tag z tag in
      add_entry table bre bim canonical;
      canonical
    end

let size table = table.next_tag
