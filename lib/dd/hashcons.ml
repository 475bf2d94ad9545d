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
   returned edge. *)

open Dd_complex

module type NODE = sig
  type node
  type edge

  val arity : int
  val terminal : node
  val zero_edge : edge
  val edge : int -> node -> edge
  val id : node -> int
  val level : node -> int
  val weight : node -> int -> int
  val target : node -> int -> node

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
    mutable slots : N.node array; (* N.terminal (id 0) marks empty *)
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
  let iter f t = Array.iter (fun n -> if N.id n <> 0 then f n) t.slots

  let mix1 = 0x2545F4914F6CDD1D
  let mix2 = 0x27D4EB2F165667C5
  let mix3 = 0x165667B19E3779F9

  (* fold one child's weight tag and target id into the hash *)
  let mix h w t = (((h lxor w) * mix2) lxor N.id t) * mix3

  let hash ~level w0 t0 w1 t1 w2 t2 w3 t3 =
    let h = mix (mix (level * mix1) w0 t0) w1 t1 in
    let h = if N.arity = 2 then h else mix (mix h w2 t2) w3 t3 in
    h lxor (h lsr 29)

  let hash_node n =
    hash ~level:(N.level n) (N.weight n 0) (N.target n 0) (N.weight n 1)
      (N.target n 1) (N.weight n 2) (N.target n 2) (N.weight n 3)
      (N.target n 3)

  let node_matches n ~level w0 t0 w1 t1 w2 t2 w3 t3 =
    N.level n = level
    && N.weight n 0 = w0
    && N.target n 0 == t0
    && N.weight n 1 = w1
    && N.target n 1 == t1
    && (N.arity = 2
       || N.weight n 2 = w2
          && N.target n 2 == t2
          && N.weight n 3 = w3
          && N.target n 3 == t3)

  let insert_rehashed t n =
    let i = ref (hash_node n land t.mask) in
    while N.id t.slots.(!i) <> 0 do
      i := (!i + 1) land t.mask
    done;
    t.slots.(!i) <- n

  let resize t =
    let old = t.slots in
    let capacity = 2 * Array.length old in
    t.slots <- Array.make capacity N.terminal;
    t.mask <- capacity - 1;
    Array.iter (fun n -> if N.id n <> 0 then insert_rehashed t n) old

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
    let i = ref (hash ~level w0 t0 w1 t1 w2 t2 w3 t3 land t.mask) in
    while
      let n = t.slots.(!i) in
      N.id n <> 0 && not (node_matches n ~level w0 t0 w1 t1 w2 t2 w3 t3)
    do
      i := (!i + 1) land t.mask
    done;
    let n = t.slots.(!i) in
    if N.id n <> 0 then n
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

  let below ~level w t = w = zero || N.level t = level - 1

  let make t ~level w0 t0 w1 t1 w2 t2 w3 t3 =
    if w0 = zero && w1 = zero && w2 = zero && w3 = zero then N.zero_edge
    else begin
      assert (level >= 0);
      assert (
        below ~level w0 t0 && below ~level w1 t1 && below ~level w2 t2
        && below ~level w3 t3);
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
    let i = ref (hash_node node land t.mask) in
    let result = ref false in
    let probing = ref true in
    while !probing do
      let n = t.slots.(!i) in
      if N.id n = 0 then probing := false
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
        if N.id n <> 0 then
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

module V = Make (struct
  type node = Types.vnode
  type edge = Types.vedge

  let arity = 2
  let terminal = Types.v_terminal
  let zero_edge = Types.v_zero
  let edge w t = { Types.vw = w; vt = t }
  let id (n : node) = n.Types.vid
  let level (n : node) = n.Types.level

  let weight (n : node) i =
    if i = 0 then n.Types.lw else if i = 1 then n.Types.hw else Ctable.zero_tag

  let target (n : node) i =
    if i = 0 then n.Types.lt else if i = 1 then n.Types.ht else terminal

  let build ~id ~level lw lt hw ht _ _ _ _ =
    { Types.vid = id; level; lw; lt; hw; ht }
end)

module M = Make (struct
  type node = Types.mnode
  type edge = Types.medge

  let arity = 4
  let terminal = Types.m_terminal
  let zero_edge = Types.m_zero
  let edge w t = { Types.mw = w; mt = t }
  let id (n : node) = n.Types.mid
  let level (n : node) = n.Types.level

  let weight (n : node) i =
    match i with
    | 0 -> n.Types.w00
    | 1 -> n.Types.w01
    | 2 -> n.Types.w10
    | _ -> n.Types.w11

  let target (n : node) i =
    match i with
    | 0 -> n.Types.t00
    | 1 -> n.Types.t01
    | 2 -> n.Types.t10
    | _ -> n.Types.t11

  let build ~id ~level w00 t00 w01 t01 w10 t10 w11 t11 =
    { Types.mid = id; level; w00; t00; w01; t01; w10; t10; w11; t11 }
end)
