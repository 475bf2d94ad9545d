(* Canonical complex values, unboxed, indexed by tag.

   Layout.  [values] holds the real part of tag [t] at [2t] and the
   imaginary part at [2t + 1]; [next.(t)] is the next older tag in [t]'s
   bucket ([-1] ends a chain); [heads.(b)] is the newest tag of bucket
   [b] ([-1] when empty).  The three arrays double together when the
   tags run out, so there is at most one entry per bucket on average,
   and a weight costs four words at full capacity.

   Cells and blocks.  A value's cell is each component in units of the
   tolerance, rounded to the nearest integer.  A block is
   2^block_bits x 2^block_bits cells, and every entry of a block is
   chained in the bucket the block's coordinates hash to.  An entry
   within tolerance of a query lies in the query's cell or one of its
   eight neighbours, and those nine cells overlap one to four blocks.

   The representative rule — own cell first, then the edge neighbours,
   then the corners, newest first within a cell; the first entry within
   tolerance wins — becomes a rank per candidate: the position of its
   cell offset in that order.  The lowest rank wins.  Equal ranks mean
   the same cell, hence the same bucket, whose chain is newest first, so
   the first candidate met wins a tie.

   Floats stay unboxed only while they do not cross a function call
   that is not inlined, so an operation leaves its result in [query] and
   [intern_query] reads it from there. *)

type t = {
  tolerance : float;
  mutable values : float array;
  mutable next : int array;
  mutable heads : int array;
  mutable size : int;
  query : float array;  (* the value being interned: re, im *)
  mutable best : int;  (* the running lookup's best candidate, or -1 *)
  mutable best_rank : int;
}

let zero_tag = 0
let one_tag = 1
let initial_bits = 8
let block_bits = 3

(* [int_of_float (floor y)] for [y = x / tol + 1/2], without floor's C
   call: truncation rounds a negative non-integer up, so step down; at
   or below -2^52 every double is an integer already. *)
let[@inline] cell tol x =
  let y = (x /. tol) +. 0.5 in
  let i = int_of_float y in
  if Float.of_int i > y && y > -0x1p52 then i - 1 else i

(* The block of a cell coordinate.  Cell 0 sits mid-block, so the 3 x 3
   neighbourhood of a real weight (imaginary cell 0) spans one block row,
   not two. *)
let[@inline] block c = (c + (1 lsl (block_bits - 1))) asr block_bits

(* The bucket of block [(bre, bim)]. *)
let[@inline] bucket t bre bim =
  let h = (bre * 0x2545F4914F6CDD1D) lxor (bim * 0x1B873593) in
  (h lxor (h lsr 29)) land (Array.length t.heads - 1)

(* Chain [tag], whose cell is [(cre, cim)], at the head of its bucket. *)
let link t tag cre cim =
  let b = bucket t (block cre) (block cim) in
  Array.unsafe_set t.next tag (Array.unsafe_get t.heads b);
  Array.unsafe_set t.heads b tag

let grow t =
  let capacity = 2 * Array.length t.next in
  let values = Array.make (2 * capacity) 0. in
  Array.blit t.values 0 values 0 (2 * t.size);
  t.values <- values;
  t.next <- Array.make capacity (-1);
  t.heads <- Array.make capacity (-1);
  (* oldest first, so every chain stays newest first *)
  let tol = t.tolerance in
  for tag = 0 to t.size - 1 do
    link t tag
      (cell tol (Array.unsafe_get values (2 * tag)))
      (cell tol (Array.unsafe_get values ((2 * tag) + 1)))
  done

(* Give the value in [query], whose cell is [(cre, cim)], the next tag. *)
let insert t cre cim =
  if t.size = Array.length t.next then grow t;
  let tag = t.size in
  t.size <- tag + 1;
  Array.unsafe_set t.values (2 * tag) (Array.unsafe_get t.query 0);
  Array.unsafe_set t.values ((2 * tag) + 1) (Array.unsafe_get t.query 1);
  link t tag cre cim;
  tag

(* Rank of a candidate's cell offset [(dre, dim)] from the query's cell
   in the scan order, at index [(dre + 1) * 3 + dim + 1]: own cell 0,
   edge neighbours 1-4 ([-1,0], [1,0], [0,-1], [0,1]), corners 5-8
   ([-1,-1], [-1,1], [1,-1], [1,1]). *)
let rank_of_offset = [| 5; 1; 6; 3; 0; 4; 7; 2; 8 |]

(* Walk bucket [b] for the query in cell [(cre, cim)], keeping the
   lowest-ranked entry within tolerance.  A rank-0 entry (own cell) ends
   the walk: nothing can beat it, and the chain is newest first. *)
let scan t b cre cim =
  let tol = t.tolerance and values = t.values and next = t.next in
  let re = Array.unsafe_get t.query 0 and im = Array.unsafe_get t.query 1 in
  let c = ref (Array.unsafe_get t.heads b) in
  while !c >= 0 do
    let tag = !c in
    let vre = Array.unsafe_get values (2 * tag)
    and vim = Array.unsafe_get values ((2 * tag) + 1) in
    if Float.abs (vre -. re) <= tol && Float.abs (vim -. im) <= tol then begin
      let dre = cell tol vre - cre and dim = cell tol vim - cim in
      if dre >= -1 && dre <= 1 && dim >= -1 && dim <= 1 then begin
        let rank =
          Array.unsafe_get rank_of_offset (((dre + 1) * 3) + dim + 1)
        in
        if rank < t.best_rank then begin
          t.best <- tag;
          t.best_rank <- rank
        end
      end
    end;
    c := if t.best_rank = 0 then -1 else Array.unsafe_get next tag
  done

(* The tag of the value in [query]: its representative, or a new tag. *)
let intern_query t =
  let tol = t.tolerance in
  let cre = cell tol (Array.unsafe_get t.query 0)
  and cim = cell tol (Array.unsafe_get t.query 1) in
  t.best <- -1;
  t.best_rank <- 9;
  let own_re = block cre and own_im = block cim in
  let own = bucket t own_re own_im in
  scan t own cre cim;
  if t.best_rank > 0 then
    (* the other blocks the 3 x 3 neighbourhood reaches; a block that
       shares the own bucket was walked with it *)
    for bre = block (cre - 1) to block (cre + 1) do
      for bim = block (cim - 1) to block (cim + 1) do
        if bre <> own_re || bim <> own_im then begin
          let b = bucket t bre bim in
          if b <> own then scan t b cre cim
        end
      done
    done;
  if t.best >= 0 then t.best else insert t cre cim

let[@inline] set_query t re im =
  Array.unsafe_set t.query 0 re;
  Array.unsafe_set t.query 1 im

let create ?(tolerance = 1e-12) () =
  let capacity = 1 lsl initial_bits in
  let t =
    {
      tolerance;
      values = Array.make (2 * capacity) 0.;
      next = Array.make capacity (-1);
      heads = Array.make capacity (-1);
      size = 0;
      query = Array.make 2 0.;
      best = -1;
      best_rank = 9;
    }
  in
  let register re im =
    set_query t re im;
    ignore (insert t (cell tolerance re) (cell tolerance im))
  in
  register 0. 0.;
  register 1. 0.;
  t

let tolerance t = t.tolerance
let size t = t.size
let bytes_per_word = 8

(* three arrays, each with its header word *)
let bytes t =
  bytes_per_word
  * (Array.length t.values + Array.length t.next + Array.length t.heads + 3)

let intern t (z : Cnum.t) =
  set_query t z.re z.im;
  intern_query t

(* A tag is only an int: one this table never handed out raises rather
   than read a slot beyond [size] (an unused zero) or beyond the array. *)
let not_a_tag a = invalid_arg (Printf.sprintf "Ctable: %d is not a tag" a)

let[@inline] re_of t a =
  if a < 0 || a >= t.size then not_a_tag a;
  Array.unsafe_get t.values (2 * a)

let[@inline] im_of t a =
  if a < 0 || a >= t.size then not_a_tag a;
  Array.unsafe_get t.values ((2 * a) + 1)
let get t a = { Cnum.re = re_of t a; im = im_of t a }

let[@inline] mag2_of t a =
  let re = re_of t a and im = im_of t a in
  (re *. re) +. (im *. im)

let mag2 t a = mag2_of t a

(* The formulas below are Cnum's, operation for operation, so every
   result is bitwise the value the Cnum function computes. *)

let mul t a b =
  let are = re_of t a and aim = im_of t a in
  let bre = re_of t b and bim = im_of t b in
  set_query t ((are *. bre) -. (aim *. bim)) ((are *. bim) +. (aim *. bre));
  intern_query t

let div t a b =
  let are = re_of t a and aim = im_of t a in
  let bre = re_of t b and bim = im_of t b in
  let d = (bre *. bre) +. (bim *. bim) in
  if d = 0. then raise Division_by_zero;
  set_query t
    (((are *. bre) +. (aim *. bim)) /. d)
    (((aim *. bre) -. (are *. bim)) /. d);
  intern_query t

let add t a b =
  set_query t (re_of t a +. re_of t b) (im_of t a +. im_of t b);
  intern_query t

let conj t a =
  set_query t (re_of t a) (-.im_of t a);
  intern_query t

let conj_mul t a b =
  let are = re_of t a and aim = -.im_of t a in
  let bre = re_of t b and bim = im_of t b in
  set_query t ((are *. bre) -. (aim *. bim)) ((are *. bim) +. (aim *. bre));
  intern_query t

let mul_value t (s : Cnum.t) b =
  let bre = re_of t b and bim = im_of t b in
  set_query t
    ((s.re *. bre) -. (s.im *. bim))
    ((s.re *. bim) +. (s.im *. bre));
  intern_query t

let scale_product t a b c =
  let are = re_of t a and aim = im_of t a in
  let bre = re_of t b and bim = im_of t b in
  let sre = (are *. bre) -. (aim *. bim)
  and sim = (are *. bim) +. (aim *. bre) in
  if sre = 0. && sim = 0. then zero_tag
  else if sre = 1. && sim = 0. then c
  else begin
    let cre = re_of t c and cim = im_of t c in
    set_query t ((sre *. cre) -. (sim *. cim)) ((sre *. cim) +. (sim *. cre));
    intern_query t
  end

(* strict >, so the first maximum wins and zero never does *)
let pivot4 t a b c d =
  let best = ref 0. and pivot = ref zero_tag in
  let m = mag2_of t a in
  if m > !best then begin
    best := m;
    pivot := a
  end;
  let m = mag2_of t b in
  if m > !best then begin
    best := m;
    pivot := b
  end;
  let m = mag2_of t c in
  if m > !best then begin
    best := m;
    pivot := c
  end;
  if mag2_of t d > !best then pivot := d;
  !pivot
