(* Shared hash-consing core for vector and matrix DD nodes.

   Vdd.make and Mdd.make used to duplicate the same three steps with
   different arities: (1) normalise the children by the first
   maximal-magnitude child weight, (2) intern the normalised weights,
   (3) look the node up in a unique table keyed by (level, child weight
   tags, child targets).  The functor below is that code path once, over
   an open-addressed table specialised to the node type — no tuple keys,
   no polymorphic hashing.

   Children travel as four (weight tag, target) argument pairs, never as
   an array or as edge blocks: a binary node passes zero for the last
   two.  A candidate is matched on its own fields, and targets by
   physical equality — a node id is handed out once, so a target is the
   same node exactly when its id is — so a hit allocates nothing but the
   returned edge.

   The node modules at the bottom hash and match over their own record
   fields: without flambda a functor body cannot inline its argument's
   functions, so the probe makes one call into the node module per
   candidate rather than one per field read. *)

open Dd_complex

module type NODE = sig
  type node
  type edge

  val terminal : node
  val zero_edge : edge
  val edge : int -> node -> edge
  val level : node -> int

  (* the hash of a node with these fields; [hash_node] of the node
     [build] makes from them must give the same int *)
  val hash :
    level:int -> int -> node -> int -> node -> int -> node -> int -> node ->
    int

  val hash_node : node -> int

  val matches :
    node -> level:int -> int -> node -> int -> node -> int -> node -> int ->
    node -> bool

  val below :
    level:int -> int -> node -> int -> node -> int -> node -> int -> node ->
    bool

  val build :
    id:int -> level:int -> int -> node -> int -> node -> int -> node -> int ->
    node -> node
end

module type S = sig
  type node
  type edge
  type t

  val create : Ctable.t -> t

  (* Normalise the children, intern the node, return the canonical edge.
     A binary node passes zero weights as children 2 and 3; non-zero
     children must sit one level below [level]. *)
  val make :
    t -> level:int -> int -> node -> int -> node -> int -> node -> int ->
    node -> edge

  val length : t -> int
  val created : t -> int
  val iter : (node -> unit) -> t -> unit
  val prune : t -> keep:(node -> bool) -> int

  (* Is this exact node (physical equality) the table's representative?
     The invariant auditor uses it to detect reachable nodes that were
     dropped from, or never entered, the unique table; the engine uses it
     to refuse a state from another context. *)
  val mem : t -> node -> bool

  val per_level_counts : t -> levels:int -> int array
end

module Make (N : NODE) :
  S with type node = N.node and type edge = N.edge = struct
  type node = N.node
  type edge = N.edge

  type t = {
    ctable : Ctable.t;
    mutable slots : N.node array; (* N.terminal marks empty *)
    mutable mask : int;
    mutable entries : int;
    mutable created : int; (* ids handed out so far; monotone *)
    (* resident nodes per level, maintained on insert and rebuilt on
       prune — the O(levels) bulge probe reads these instead of walking
       the DD *)
    mutable level_counts : int array;
  }

  let initial_bits = 6
  let zero = Ctable.zero_tag

  let create ctable =
    let capacity = 1 lsl initial_bits in
    {
      ctable;
      slots = Array.make capacity N.terminal;
      mask = capacity - 1;
      entries = 0;
      created = 0;
      level_counts = Array.make 8 0;
    }

  let length t = t.entries
  let created t = t.created
  let iter f t = Array.iter (fun n -> if n != N.terminal then f n) t.slots

  let insert_rehashed t n =
    let i = ref (N.hash_node n land t.mask) in
    while t.slots.(!i) != N.terminal do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) <- n

  let resize t =
    let old = t.slots in
    let capacity = 2 * Array.length old in
    t.slots <- Array.make capacity N.terminal;
    t.mask <- capacity - 1;
    Array.iter (fun n -> if n != N.terminal then insert_rehashed t n) old

  (* keep the load factor at or below 1/2 so linear probes stay short *)
  let ensure_room t =
    if 2 * (t.entries + 1) > t.mask + 1 then resize t

  let count_level t level =
    let len = Array.length t.level_counts in
    if level >= len then begin
      let grown = Array.make (max (level + 1) (2 * len)) 0 in
      Array.blit t.level_counts 0 grown 0 len;
      t.level_counts <- grown
    end;
    t.level_counts.(level) <- t.level_counts.(level) + 1

  let per_level_counts t ~levels =
    let out = Array.make levels 0 in
    Array.blit t.level_counts 0 out 0 (min levels (Array.length t.level_counts));
    out

  let find_or_insert t ~level w0 t0 w1 t1 w2 t2 w3 t3 =
    ensure_room t;
    let i = ref (N.hash ~level w0 t0 w1 t1 w2 t2 w3 t3 land t.mask) in
    while
      let n = t.slots.(!i) in
      n != N.terminal && not (N.matches n ~level w0 t0 w1 t1 w2 t2 w3 t3)
    do
      i := (!i + 1) land t.mask
    done;
    let n = t.slots.(!i) in
    if n != N.terminal then n
    else begin
      if Fault.fire Fault.Alloc_fail then raise Out_of_memory;
      t.created <- t.created + 1;
      let node = N.build ~id:t.created ~level w0 t0 w1 t1 w2 t2 w3 t3 in
      t.slots.(!i) <- node;
      t.entries <- t.entries + 1;
      count_level t level;
      node
    end

  (* A non-zero child weight divided by the pivot.  The fault harness
     corrupts a weight here, in the funnel every child weight of every
     new node passes through, the way cosmic FP noise would. *)
  let normalise ct pivot w =
    if w = zero then zero
    else if Fault.fire Fault.Weight_flip then begin
      let z = Cnum.div (Ctable.get ct w) (Ctable.get ct pivot) in
      Ctable.intern ct (Cnum.make (Fault.flip_float z.re) z.im)
    end
    else Ctable.div ct w pivot

  let make t ~level w0 t0 w1 t1 w2 t2 w3 t3 =
    if w0 = zero && w1 = zero && w2 = zero && w3 = zero then N.zero_edge
    else begin
      assert (level >= 0);
      assert (N.below ~level w0 t0 w1 t1 w2 t2 w3 t3);
      (* Normalisation: divide every child weight by the first
         maximal-magnitude child weight, which becomes the weight of the
         returned edge.  Canonical because weights are canonical
         (interning merges FP noise); stable because normalised child
         weights have magnitude <= 1.  Children are normalised in index
         order, and a child given with weight zero points at the
         terminal. *)
      let ct = t.ctable in
      let pivot = Ctable.pivot4 ct w0 w1 w2 w3 in
      let t0 = if w0 = zero then N.terminal else t0 in
      let t1 = if w1 = zero then N.terminal else t1 in
      let t2 = if w2 = zero then N.terminal else t2 in
      let t3 = if w3 = zero then N.terminal else t3 in
      let w0 = normalise ct pivot w0 in
      let w1 = normalise ct pivot w1 in
      let w2 = normalise ct pivot w2 in
      let w3 = normalise ct pivot w3 in
      N.edge pivot (find_or_insert t ~level w0 t0 w1 t1 w2 t2 w3 t3)
    end

  let mem t node =
    let i = ref (N.hash_node node land t.mask) in
    let result = ref false in
    let probing = ref true in
    while !probing do
      let n = t.slots.(!i) in
      if n == N.terminal then probing := false
      else if n == node then begin
        result := true;
        probing := false
      end
      else i := (!i + 1) land t.mask
    done;
    !result

  let prune t ~keep =
    let survivors = ref [] and removed = ref 0 in
    Array.iter
      (fun n ->
        if n != N.terminal then
          if keep n then survivors := n :: !survivors else incr removed)
      t.slots;
    Array.fill t.slots 0 (Array.length t.slots) N.terminal;
    Array.fill t.level_counts 0 (Array.length t.level_counts) 0;
    List.iter
      (fun n ->
        insert_rehashed t n;
        count_level t (N.level n))
      !survivors;
    t.entries <- t.entries - !removed;
    !removed
end

(* The hash both node modules use: the level, then each (weight tag,
   target id) pair folded in child order, then a final xor-shift.  A
   vector node folds its two pairs, a matrix node its four. *)
let mix1 = 0x2545F4914F6CDD1D
let mix2 = 0x27D4EB2F165667C5
let mix3 = 0x165667B19E3779F9
let[@inline] mix h w id = (((h lxor w) * mix2) lxor id) * mix3
let[@inline] finish h = h lxor (h lsr 29)

module V = Make (struct
  type node = Types.vnode
  type edge = Types.vedge

  let terminal = Types.v_terminal
  let zero_edge = Types.v_zero
  let edge w t = { Types.vw = w; vt = t }
  let level (n : node) = n.Types.level

  let[@inline] hash2 ~level lw (lt : node) hw (ht : node) =
    finish (mix (mix (level * mix1) lw lt.Types.vid) hw ht.Types.vid)

  let hash ~level lw lt hw ht _ _ _ _ = hash2 ~level lw lt hw ht

  let hash_node (n : node) =
    hash2 ~level:n.Types.level n.Types.lw n.Types.lt n.Types.hw n.Types.ht

  let matches (n : node) ~level lw lt hw ht _ _ _ _ =
    n.Types.level = level && n.Types.lw = lw && n.Types.lt == lt
    && n.Types.hw = hw && n.Types.ht == ht

  let below ~level lw (lt : node) hw (ht : node) _ _ _ _ =
    let zero = Ctable.zero_tag and l = level - 1 in
    (lw = zero || lt.Types.level = l) && (hw = zero || ht.Types.level = l)

  let build ~id ~level lw lt hw ht _ _ _ _ =
    { Types.vid = id; level; lw; lt; hw; ht }
end)

module M = Make (struct
  type node = Types.mnode
  type edge = Types.medge

  let terminal = Types.m_terminal
  let zero_edge = Types.m_zero
  let edge w t = { Types.mw = w; mt = t }
  let level (n : node) = n.Types.level

  let[@inline] hash ~level w00 (t00 : node) w01 (t01 : node) w10
      (t10 : node) w11 (t11 : node) =
    let h = mix (mix (level * mix1) w00 t00.Types.mid) w01 t01.Types.mid in
    finish (mix (mix h w10 t10.Types.mid) w11 t11.Types.mid)

  let hash_node (n : node) =
    hash ~level:n.Types.level n.Types.w00 n.Types.t00 n.Types.w01 n.Types.t01
      n.Types.w10 n.Types.t10 n.Types.w11 n.Types.t11

  let matches (n : node) ~level w00 t00 w01 t01 w10 t10 w11 t11 =
    n.Types.level = level && n.Types.w00 = w00 && n.Types.t00 == t00
    && n.Types.w01 = w01 && n.Types.t01 == t01 && n.Types.w10 = w10
    && n.Types.t10 == t10 && n.Types.w11 = w11 && n.Types.t11 == t11

  let below ~level w00 (t00 : node) w01 (t01 : node) w10 (t10 : node) w11
      (t11 : node) =
    let zero = Ctable.zero_tag and l = level - 1 in
    (w00 = zero || t00.Types.level = l)
    && (w01 = zero || t01.Types.level = l)
    && (w10 = zero || t10.Types.level = l)
    && (w11 = zero || t11.Types.level = l)

  let build ~id ~level w00 t00 w01 t01 w10 t10 w11 t11 =
    { Types.mid = id; level; w00; t00; w01; t01; w10; t10; w11; t11 }
end)
