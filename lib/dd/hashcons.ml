(* Shared hash-consing core for vector and matrix DD nodes.

   Vdd.make and Mdd.make used to duplicate the same three steps with
   different arities: (1) normalise the children by the first
   maximal-magnitude child weight, (2) intern the normalised weights,
   (3) look the node up in a unique table keyed by (level, child weight
   tags, child node ids).  The functor below is that code path once,
   over an open-addressed table specialised to the node type — no tuple
   keys, no polymorphic hashing. *)

open Dd_complex

module type NODE = sig
  type node
  type edge

  val arity : int
  val terminal : node
  val zero_edge : edge
  val is_zero : edge -> bool
  val weight : edge -> Cnum.t
  val target : edge -> node
  val edge : Cnum.t -> node -> edge
  val id : node -> int
  val level : node -> int
  val child : node -> int -> edge
  val build : id:int -> level:int -> edge array -> node
end

module type S = sig
  type node
  type edge
  type t

  val create : intern:(Cnum.t -> Cnum.t) -> unit -> t

  (* Normalise [children] (mutated in place), intern the node, return the
     canonical edge.  [children] must have length [arity]; non-zero
     children must sit one level below [level]. *)
  val make : t -> level:int -> edge array -> edge

  val length : t -> int
  val created : t -> int
  val iter : (node -> unit) -> t -> unit
  val prune : t -> keep:(node -> bool) -> int

  (* Is this exact node (physical equality) the table's representative?
     The invariant auditor uses it to detect reachable nodes that were
     dropped from, or never entered, the unique table. *)
  val mem : t -> node -> bool

  val per_level_counts : t -> levels:int -> int array
end

module Make (N : NODE) :
  S with type node = N.node and type edge = N.edge = struct
  type node = N.node
  type edge = N.edge

  type t = {
    intern : Cnum.t -> Cnum.t;
    mutable slots : N.node array; (* N.terminal (id 0) marks empty *)
    mutable mask : int;
    mutable entries : int;
    mutable created : int; (* ids handed out so far; monotone *)
    (* resident nodes per level, maintained on insert and rebuilt on
       prune — the O(levels) bulge probe reads these instead of walking
       the DD *)
    mutable level_counts : int array;
  }

  let initial_bits = 10

  let create ~intern () =
    let capacity = 1 lsl initial_bits in
    {
      intern;
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

  let hash_children ~level (children : N.edge array) =
    let h = ref (level * mix1) in
    for i = 0 to N.arity - 1 do
      let c = children.(i) in
      h := (!h lxor Cnum.tag (N.weight c)) * mix2;
      h := (!h lxor N.id (N.target c)) * mix3
    done;
    !h lxor (!h lsr 29)

  let hash_node n =
    let level = N.level n in
    let h = ref (level * mix1) in
    for i = 0 to N.arity - 1 do
      let c = N.child n i in
      h := (!h lxor Cnum.tag (N.weight c)) * mix2;
      h := (!h lxor N.id (N.target c)) * mix3
    done;
    !h lxor (!h lsr 29)

  let node_matches n ~level (children : N.edge array) =
    N.level n = level
    &&
    let ok = ref true in
    for i = 0 to N.arity - 1 do
      let c = N.child n i and d = children.(i) in
      if
        N.id (N.target c) <> N.id (N.target d)
        || Cnum.tag (N.weight c) <> Cnum.tag (N.weight d)
      then ok := false
    done;
    !ok

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

  let find_or_insert t ~level ~h (children : N.edge array) =
    ensure_room t;
    let i = ref (h land t.mask) in
    while
      let n = t.slots.(!i) in
      N.id n <> 0 && not (node_matches n ~level children)
    do
      i := (!i + 1) land t.mask
    done;
    let n = t.slots.(!i) in
    if N.id n <> 0 then n
    else begin
      if Fault.fire Fault.Alloc_fail then raise Out_of_memory;
      t.created <- t.created + 1;
      let node = N.build ~id:t.created ~level children in
      t.slots.(!i) <- node;
      t.entries <- t.entries + 1;
      count_level t level;
      node
    end

  let make t ~level (children : N.edge array) =
    let all_zero = ref true in
    for i = 0 to N.arity - 1 do
      if not (N.is_zero children.(i)) then all_zero := false
    done;
    if !all_zero then N.zero_edge
    else begin
      assert (level >= 0);
      assert (
        let ok = ref true in
        for i = 0 to N.arity - 1 do
          let c = children.(i) in
          if not (N.is_zero c || N.level (N.target c) = level - 1) then
            ok := false
        done;
        !ok);
      (* Normalisation: divide every child weight by the first
         maximal-magnitude child weight, which becomes the weight of the
         returned edge.  Canonical because weights are canonical
         (interning merges FP noise); stable because normalised child
         weights have magnitude <= 1. *)
      let pivot = ref Cnum.zero and best = ref 0. in
      for i = 0 to N.arity - 1 do
        let w = N.weight children.(i) in
        let m = Cnum.mag2 w in
        if m > !best then begin
          best := m;
          pivot := w
        end
      done;
      let pivot = !pivot in
      for i = 0 to N.arity - 1 do
        let c = children.(i) in
        if N.is_zero c then children.(i) <- N.zero_edge
        else
          children.(i) <-
            N.edge (t.intern (Cnum.div (N.weight c) pivot)) (N.target c)
      done;
      let h = hash_children ~level children in
      N.edge pivot (find_or_insert t ~level ~h children)
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
  let is_zero = Types.v_is_zero
  let weight (e : edge) = e.Types.vw
  let target (e : edge) = e.Types.vt
  let edge w t = { Types.vw = w; Types.vt = t }
  let id (n : node) = n.Types.vid
  let level (n : node) = n.Types.level

  let child (n : node) i =
    if i = 0 then n.Types.v_low else n.Types.v_high

  let build ~id ~level (c : edge array) =
    { Types.vid = id; Types.level; Types.v_low = c.(0); Types.v_high = c.(1) }
end)

module M = Make (struct
  type node = Types.mnode
  type edge = Types.medge

  let arity = 4
  let terminal = Types.m_terminal
  let zero_edge = Types.m_zero
  let is_zero = Types.m_is_zero
  let weight (e : edge) = e.Types.mw
  let target (e : edge) = e.Types.mt
  let edge w t = { Types.mw = w; Types.mt = t }
  let id (n : node) = n.Types.mid
  let level (n : node) = n.Types.level

  let child (n : node) i =
    match i with
    | 0 -> n.Types.m00
    | 1 -> n.Types.m01
    | 2 -> n.Types.m10
    | _ -> n.Types.m11

  let build ~id ~level (c : edge array) =
    {
      Types.mid = id;
      Types.level;
      Types.m00 = c.(0);
      Types.m01 = c.(1);
      Types.m10 = c.(2);
      Types.m11 = c.(3);
    }
end)
