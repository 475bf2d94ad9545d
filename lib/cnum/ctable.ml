(* Canonical complex values, unboxed, indexed by tag.

   Layout.  Entries live in append-only chunks of 2^chunk_bits tags: a
   chunk is one float array holding, for each of its tags, the real
   part, the imaginary part and the chain link (the next older tag in
   the bucket, [-1] at the end; a tag is below 2^53, so the float is
   exact).  A chain step reads one cache line, a value read is one chunk
   lookup, and the OCaml GC never scans a chunk.  Growth appends a chunk
   and copies no entry; only the chunk-pointer array doubles, copying
   pointers.  [heads] holds, as one int32 per bucket, the newest tag of
   each bucket ([-1] when empty), which caps tags at 2^31 - 1.  When the
   tags would outnumber the buckets, the heads double and every entry is
   re-linked oldest first, so there is at most one entry per bucket on
   average and every chain stays newest first.

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
   the first candidate met wins a tie.  Neither the block size nor the
   bucket count can therefore change a tag.

   Floats stay unboxed only while they do not cross a function call
   that is not inlined, so an operation leaves its result in [query] and
   [intern_query] reads it from there. *)

type t = {
  tolerance : float;
  mutable chunks : float array array;  (* unused slots alias chunk 0 *)
  mutable heads : Bytes.t;
  mutable size : int;
  query : float array;  (* the value being interned: re, im *)
  mutable best : int;  (* the running lookup's best candidate, or -1 *)
  mutable best_rank : int;
}

let zero_tag = 0
let one_tag = 1
let initial_buckets = 1 lsl 8
let block_bits = 4
let chunk_bits = 8
let chunk_mask = (1 lsl chunk_bits) - 1
let chunk_floats = 3 lsl chunk_bits
let max_tag = 0x7FFF_FFFF

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] buckets t = Bytes.length t.heads lsr 2
let[@inline] head t b = Int32.to_int (get32 t.heads (b lsl 2))
let[@inline] set_head t b tag = set32 t.heads (b lsl 2) (Int32.of_int tag)

(* Tag [a]'s chunk, and the index of its real part there; the imaginary
   part and the link follow it. *)
let[@inline] chunk_at t a = Array.unsafe_get t.chunks (a lsr chunk_bits)
let[@inline] slot a = 3 * (a land chunk_mask)

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
  (h lxor (h lsr 29)) land (buckets t - 1)

(* Chain [tag], whose cell is [(cre, cim)], at the head of its bucket. *)
let link t tag cre cim =
  let b = bucket t (block cre) (block cim) in
  Array.unsafe_set (chunk_at t tag) (slot tag + 2) (Float.of_int (head t b));
  set_head t b tag

let grow_heads t =
  t.heads <- Bytes.make (2 * Bytes.length t.heads) '\255';
  (* oldest first, so every chain stays newest first *)
  let tol = t.tolerance in
  for tag = 0 to t.size - 1 do
    let c = chunk_at t tag and i = slot tag in
    link t tag
      (cell tol (Array.unsafe_get c i))
      (cell tol (Array.unsafe_get c (i + 1)))
  done

let add_chunk t =
  let k = t.size lsr chunk_bits in
  if k = Array.length t.chunks then begin
    let chunks = Array.make (2 * k) (Array.unsafe_get t.chunks 0) in
    Array.blit t.chunks 0 chunks 0 k;
    t.chunks <- chunks
  end;
  (* only slots below [size] are ever read *)
  t.chunks.(k) <- Array.create_float chunk_floats

(* Give the value in [query], whose cell is [(cre, cim)], the next tag. *)
let insert t cre cim =
  let tag = t.size in
  if tag > max_tag then invalid_arg "Ctable: more than 2^31 - 1 tags";
  if tag = buckets t then grow_heads t;
  if tag land chunk_mask = 0 && tag > 0 then add_chunk t;
  let c = chunk_at t tag and i = slot tag in
  Array.unsafe_set c i (Array.unsafe_get t.query 0);
  Array.unsafe_set c (i + 1) (Array.unsafe_get t.query 1);
  t.size <- tag + 1;
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
  let tol = t.tolerance in
  let re = Array.unsafe_get t.query 0 and im = Array.unsafe_get t.query 1 in
  let c = ref (head t b) in
  while !c >= 0 do
    let tag = !c in
    let ch = chunk_at t tag and i = slot tag in
    let vre = Array.unsafe_get ch i and vim = Array.unsafe_get ch (i + 1) in
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
    c :=
      if t.best_rank = 0 then -1
      else int_of_float (Array.unsafe_get ch (i + 2))
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
  let t =
    {
      tolerance;
      chunks = [| Array.create_float chunk_floats |];
      heads = Bytes.make (4 * initial_buckets) '\255';
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

(* Every block reachable from the table, in words with their headers:
   the record with its boxed tolerance (8 + 2), [query] (3), the
   chunk-pointer array, the chunks in use (chunk 0 counted once) and the
   heads, whose bytes end in at least one padding byte. *)
let bytes t =
  let chunks = (t.size + chunk_mask) lsr chunk_bits in
  bytes_per_word
  * (13
    + (1 + Array.length t.chunks)
    + (chunks * (1 + chunk_floats))
    + (2 + (Bytes.length t.heads / bytes_per_word)))

let intern t (z : Cnum.t) =
  set_query t z.re z.im;
  intern_query t

(* A tag is only an int: one this table never handed out raises rather
   than read a slot beyond [size] (an unwritten float) or beyond the
   chunks. *)
let not_a_tag a = invalid_arg (Printf.sprintf "Ctable: %d is not a tag" a)

(* The chunk of tag [a], after checking that [a] is a tag. *)
let[@inline] chunk t a =
  if a < 0 || a >= t.size then not_a_tag a;
  chunk_at t a

let[@inline] re_in c a = Array.unsafe_get c (slot a)
let[@inline] im_in c a = Array.unsafe_get c (slot a + 1)

let get t a =
  let c = chunk t a in
  { Cnum.re = re_in c a; im = im_in c a }

let[@inline] mag2_of t a =
  let c = chunk t a in
  let re = re_in c a and im = im_in c a in
  (re *. re) +. (im *. im)

let mag2 t a = mag2_of t a

let[@inline] finite re im =
  Float.abs re < Float.infinity && Float.abs im < Float.infinity

(* The formulas below are Cnum's, operation for operation, so every
   result is bitwise the value the Cnum function computes.

   Shortcuts.  Interning the value of an existing tag [a] returns [a]:
   no later entry can enter [a]'s cell within tolerance of it, since
   [a] would have been its own-cell match, and no earlier one was
   there, since [a] got a tag.  A zero's sign changes neither the cell
   nor any distance.  So where the formula is known to reproduce an
   operand's value up to the sign of a zero, the operand's tag is the
   answer without a lookup.  A value that is not finite never matches
   itself, so it takes the lookup. *)

(* [(are * 1 - aim * 0, are * 0 + aim * 1)] is [a] up to the sign of a
   zero when [a] is finite; the same holds for [1 * b]. *)
let mul t a b =
  let ca = chunk t a and cb = chunk t b in
  let are = re_in ca a and aim = im_in ca a in
  let bre = re_in cb b and bim = im_in cb b in
  if b = one_tag && finite are aim then a
  else if a = one_tag && finite bre bim then b
  else begin
    set_query t ((are *. bre) -. (aim *. bim)) ((are *. bim) +. (aim *. bre));
    intern_query t
  end

(* With [b = a] the real numerator [are * are + aim * aim] is [d]
   itself and the imaginary one [aim * are - are * aim] is [+0], so the
   quotient is exactly [1 + 0i] when [d] is finite ([d = 0] raises
   first).  [div a one] is [(are + aim * 0, aim - are * 0)], which is
   [a] up to the sign of a zero when [a] is finite. *)
let div t a b =
  let ca = chunk t a and cb = chunk t b in
  let are = re_in ca a and aim = im_in ca a in
  let bre = re_in cb b and bim = im_in cb b in
  let d = (bre *. bre) +. (bim *. bim) in
  if d = 0. then raise Division_by_zero;
  if a = b && d < Float.infinity then one_tag
  else if b = one_tag && finite are aim then a
  else begin
    set_query t
      (((are *. bre) +. (aim *. bim)) /. d)
      (((aim *. bre) -. (are *. bim)) /. d);
    intern_query t
  end

let add t a b =
  let ca = chunk t a and cb = chunk t b in
  set_query t (re_in ca a +. re_in cb b) (im_in ca a +. im_in cb b);
  intern_query t

let conj t a =
  let c = chunk t a in
  let re = re_in c a and im = im_in c a in
  set_query t re (-.im);
  intern_query t

let conj_mul t a b =
  let ca = chunk t a and cb = chunk t b in
  let are = re_in ca a and aim = -.im_in ca a in
  let bre = re_in cb b and bim = im_in cb b in
  set_query t ((are *. bre) -. (aim *. bim)) ((are *. bim) +. (aim *. bre));
  intern_query t

let mul_value t (s : Cnum.t) b =
  let c = chunk t b in
  let bre = re_in c b and bim = im_in c b in
  set_query t
    ((s.re *. bre) -. (s.im *. bim))
    ((s.re *. bim) +. (s.im *. bre));
  intern_query t

let scale_product t a b c =
  let ca = chunk t a and cb = chunk t b in
  let are = re_in ca a and aim = im_in ca a in
  let bre = re_in cb b and bim = im_in cb b in
  let sre = (are *. bre) -. (aim *. bim)
  and sim = (are *. bim) +. (aim *. bre) in
  if sre = 0. && sim = 0. then zero_tag
  else if sre = 1. && sim = 0. then c
  else begin
    let cc = chunk t c in
    let cre = re_in cc c and cim = im_in cc c in
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
