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
  (* Taken around the slow path of [intern] when [parallel] is set, so
     worker domains can funnel weights through one shared table.  A single
     mutex (not a stripe array): the neighbour-cell scan of
     [find_existing] crosses cell boundaries, so striping could not keep a
     lookup and a racing insert apart, and [grow] replaces [slots]
     wholesale.  The common case — an already-tagged weight — never
     reaches the lock. *)
  lock : Mutex.t;
  mutable parallel : bool;
  (* contention counters, mutated only while holding [lock] *)
  mutable lock_acquisitions : int;
  mutable lock_contended : int;
  mutable lock_wait : float;
  wait_buckets : int array;
}

(* Mirror of [Dd.Compute_table.lock_stats] (this library sits below
   [dd], so the shape is duplicated rather than shared). *)
type lock_stats = {
  acquisitions : int;
  contended : int;
  wait_seconds : float;
  wait_buckets : int array;
}

let hist_buckets = 64

(* local copy of Obs.Metrics.bucket_exponent: bucket [e] holds values in
   [2^(e-1), 2^e), clamped to [-32, 31] *)
let bucket_exponent v =
  if v <= 0. then -32
  else
    let _, e = Float.frexp v in
    if e < -32 then -32 else if e > 31 then 31 else e

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
      lock = Mutex.create ();
      parallel = false;
      lock_acquisitions = 0;
      lock_contended = 0;
      lock_wait = 0.;
      wait_buckets = Array.make hist_buckets 0;
    }
  in
  let register z =
    add_entry table (cell_coord table z.Cnum.re) (cell_coord table z.Cnum.im) z
  in
  register Cnum.zero;
  register Cnum.one;
  table

let tolerance table = table.tolerance
let set_parallel table flag = table.parallel <- flag

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

let intern_locked table z =
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

let intern table z =
  if Cnum.tag z >= 0 then z
  else if table.parallel then begin
    (* contention-instrumented acquisition: try_lock success is the
       uncontended path; a failure times the blocking wait *)
    if Mutex.try_lock table.lock then
      table.lock_acquisitions <- table.lock_acquisitions + 1
    else begin
      let t0 = Unix.gettimeofday () in
      Mutex.lock table.lock;
      let wait = Float.max 0. (Unix.gettimeofday () -. t0) in
      table.lock_acquisitions <- table.lock_acquisitions + 1;
      table.lock_contended <- table.lock_contended + 1;
      table.lock_wait <- table.lock_wait +. wait;
      let b = bucket_exponent wait + 32 in
      table.wait_buckets.(b) <- table.wait_buckets.(b) + 1
    end;
    match intern_locked table z with
    | canonical ->
      Mutex.unlock table.lock;
      canonical
    | exception e ->
      Mutex.unlock table.lock;
      raise e
  end
  else intern_locked table z

let size table = table.next_tag

let lock_stats table =
  {
    acquisitions = table.lock_acquisitions;
    contended = table.lock_contended;
    wait_seconds = table.lock_wait;
    wait_buckets = Array.copy table.wait_buckets;
  }

let reset_lock_stats table =
  table.lock_acquisitions <- 0;
  table.lock_contended <- 0;
  table.lock_wait <- 0.;
  Array.fill table.wait_buckets 0 hist_buckets 0
