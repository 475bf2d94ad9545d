(* Fixed-capacity, lossy memoisation tables for the DD kernels.

   Production DD packages do not memoise in unbounded hash maps: they use
   direct-mapped arrays with packed integer keys, overwrite on collision,
   and accept the recomputation a lost entry costs (Wille, Hillmich,
   Burgholzer, "Decision Diagrams for Quantum Computing", 2023).  This
   bounds the memory of a long run, removes rehash pauses from the hot
   path, and makes a lookup one multiply-shift index plus a full key
   comparison — a collision can therefore never return the value of a
   different key, it only reads as a miss.

   The [2^bits] slots are allocated by the first [store].  Until then the
   table is one unoccupied slot under [mask = 0], so every [find] lands
   on it and misses — exactly what an empty full-size table answers — and
   a context pays only for the tables its run actually fills. *)

type 'v t = {
  name : string;
  dummy : 'v;  (* fills unoccupied slots; also the Table_poison payload *)
  bits : int;
  mutable mask : int;  (* 0 until the first store allocates the slots *)
  mutable occupied : Bytes.t;
  mutable k1 : int array;
  mutable k2 : int array;
  mutable k3 : int array;
  mutable value : 'v array;
  mutable entries : int;
  mutable generation : int;  (* sweeps so far *)
  mutable lookups : int;
  mutable hits : int;
  mutable stores : int;
  mutable evictions : int;
  mutable invalidated : int;
}

type stats = {
  table : string;
  capacity : int;
  entries : int;
  lookups : int;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  invalidated : int;
  generation : int;
}

let create ~name ~bits ~dummy =
  if bits < 1 || bits > 28 then
    invalid_arg "Compute_table.create: bits must be in [1, 28]";
  {
    name;
    dummy;
    bits;
    mask = 0;
    occupied = Bytes.make 1 '\000';
    k1 = [| 0 |];
    k2 = [| 0 |];
    k3 = [| 0 |];
    value = [| dummy |];
    entries = 0;
    generation = 0;
    lookups = 0;
    hits = 0;
    stores = 0;
    evictions = 0;
    invalidated = 0;
  }

let capacity (t : _ t) = 1 lsl t.bits
let name (t : _ t) = t.name
let length (t : _ t) = t.entries
let generation (t : _ t) = t.generation

(* Multiplicative mixing of the three key words; the constants are the
   usual 64-bit golden-ratio/xxhash primes.  Only the low bits survive the
   final [land], so the shift folds the high bits back in first. *)
let slot (t : _ t) k1 k2 k3 =
  let h = k1 * 0x2545F4914F6CDD1D in
  let h = (h lxor k2) * 0x27D4EB2F165667C5 in
  let h = (h lxor k3) * 0x165667B19E3779F9 in
  (h lxor (h lsr 29)) land t.mask

let key_matches (t : _ t) i k1 k2 k3 =
  t.k1.(i) = k1 && t.k2.(i) = k2 && t.k3.(i) = k3

let find (t : 'v t) ~k1 ~k2 ~k3 =
  t.lookups <- t.lookups + 1;
  let i = slot t k1 k2 k3 in
  if Bytes.unsafe_get t.occupied i = '\001' && key_matches t i k1 k2 k3
  then begin
    t.hits <- t.hits + 1;
    (* fault harness: a poisoned hit hands back the dummy value — the
       corruption a collision-checking bug or torn store would produce *)
    if Fault.fire Fault.Table_poison then Some t.dummy
    else Some t.value.(i)
  end
  else None

let allocate (t : 'v t) =
  let capacity = capacity t in
  t.occupied <- Bytes.make capacity '\000';
  t.k1 <- Array.make capacity 0;
  t.k2 <- Array.make capacity 0;
  t.k3 <- Array.make capacity 0;
  t.value <- Array.make capacity t.dummy;
  t.mask <- capacity - 1

let store (t : 'v t) ~k1 ~k2 ~k3 v =
  if t.mask = 0 then allocate t;
  let i = slot t k1 k2 k3 in
  if Bytes.unsafe_get t.occupied i = '\001' then begin
    if not (key_matches t i k1 k2 k3) then t.evictions <- t.evictions + 1
  end
  else begin
    Bytes.unsafe_set t.occupied i '\001';
    t.entries <- t.entries + 1
  end;
  t.k1.(i) <- k1;
  t.k2.(i) <- k2;
  t.k3.(i) <- k3;
  t.value.(i) <- v;
  t.stores <- t.stores + 1

let iter f (t : 'v t) =
  for i = 0 to t.mask do
    if Bytes.unsafe_get t.occupied i = '\001' then
      f t.k1.(i) t.k2.(i) t.k3.(i) t.value.(i)
  done

let clear (t : _ t) =
  Bytes.fill t.occupied 0 (Bytes.length t.occupied) '\000';
  t.entries <- 0

(* Generation-aware sweep: entries whose keys/values still refer to live
   nodes survive the collection and stay warm; the rest are dropped (and
   counted).  Returns the number of dropped entries. *)
let sweep (t : 'v t) ~keep =
  t.generation <- t.generation + 1;
  let dropped = ref 0 in
  for i = 0 to t.mask do
    if
      Bytes.unsafe_get t.occupied i = '\001'
      && not (keep t.k1.(i) t.k2.(i) t.k3.(i) t.value.(i))
    then begin
      Bytes.unsafe_set t.occupied i '\000';
      incr dropped
    end
  done;
  t.entries <- t.entries - !dropped;
  t.invalidated <- t.invalidated + !dropped;
  !dropped

let reset_counters (t : _ t) =
  t.lookups <- 0;
  t.hits <- 0;
  t.stores <- 0;
  t.evictions <- 0;
  t.invalidated <- 0

let stats (t : 'v t) : stats =
  {
    table = t.name;
    capacity = capacity t;
    entries = t.entries;
    lookups = t.lookups;
    hits = t.hits;
    misses = t.lookups - t.hits;
    stores = t.stores;
    evictions = t.evictions;
    invalidated = t.invalidated;
    generation = t.generation;
  }

let hits (t : _ t) = t.hits
let lookups (t : _ t) = t.lookups

let hit_rate (t : _ t) =
  if t.lookups = 0 then 0.
  else float_of_int t.hits /. float_of_int t.lookups

let pp_stats fmt s =
  Format.fprintf fmt
    "%-7s lookups %9d  hits %9d (%5.1f%%)  evictions %8d  entries %d/%d"
    s.table s.lookups s.hits
    (if s.lookups = 0 then 0.
     else 100. *. float_of_int s.hits /. float_of_int s.lookups)
    s.evictions s.entries s.capacity
