(* The level<->qubit indirection at the heart of dynamic variable
   reordering.  A DD node's [level] is a purely structural coordinate
   (terminal at -1, root of an n-qubit state at n-1); which *qubit* a
   level represents is recorded here and nowhere else.  The identity
   order is the empty permutation, which stands for "level k is qubit k"
   at every width — the representation every context starts with, so the
   unordered fast paths never pay for the indirection. *)

type t = { level_of_qubit : int array; qubit_of_level : int array }

let identity = { level_of_qubit = [||]; qubit_of_level = [||] }
let is_identity order = Array.length order.qubit_of_level = 0
let size order = Array.length order.qubit_of_level

let level_of_qubit order q =
  if q < Array.length order.level_of_qubit then order.level_of_qubit.(q)
  else q

let qubit_of_level order l =
  if l < Array.length order.qubit_of_level then order.qubit_of_level.(l)
  else l

let invert image =
  let n = Array.length image in
  let inverse = Array.make n (-1) in
  Array.iteri (fun i v -> if v >= 0 && v < n then inverse.(v) <- i) image;
  inverse

let is_permutation image =
  let n = Array.length image in
  let seen = Array.make n false in
  Array.for_all
    (fun v ->
      v >= 0 && v < n
      &&
      if seen.(v) then false
      else begin
        seen.(v) <- true;
        true
      end)
    image

(* collapse a literal identity permutation to the canonical sentinel so
   [is_identity] (and every fast path behind it) recognises it *)
let normalise order =
  let id = ref true in
  Array.iteri (fun l q -> if l <> q then id := false) order.qubit_of_level;
  if !id then identity else order

let of_qubit_of_level image =
  if not (is_permutation image) then
    invalid_arg "Order.of_qubit_of_level: not a permutation";
  normalise { qubit_of_level = Array.copy image; level_of_qubit = invert image }

let is_valid order =
  let l = order.level_of_qubit and q = order.qubit_of_level in
  Array.length l = Array.length q
  && is_permutation q
  && Array.for_all (fun x -> x) (Array.mapi (fun i v -> l.(v) = i) q)

(* materialise the identity sentinel to an explicit width-n permutation *)
let extend order n =
  let m = size order in
  if m >= n then order
  else
    {
      level_of_qubit = Array.init n (fun q -> level_of_qubit order q);
      qubit_of_level = Array.init n (fun l -> qubit_of_level order l);
    }

let swap_levels order ~n level =
  if level < 0 || level + 1 >= n then
    invalid_arg "Order.swap_levels: level out of range";
  let order = extend order n in
  let q = Array.copy order.qubit_of_level in
  let tmp = q.(level) in
  q.(level) <- q.(level + 1);
  q.(level + 1) <- tmp;
  normalise { qubit_of_level = q; level_of_qubit = invert q }

let equal a b ~n =
  let rec check l =
    l >= n || (qubit_of_level a l = qubit_of_level b l && check (l + 1))
  in
  check 0

let to_string order =
  if is_identity order then "identity"
  else
    String.concat " "
      (Array.to_list (Array.map string_of_int order.qubit_of_level))

let of_string text =
  let text = String.trim text in
  if text = "identity" || text = "" then identity
  else
    let tokens =
      String.split_on_char ' ' text
      |> List.concat_map (String.split_on_char ',')
      |> List.filter (fun t -> t <> "")
    in
    let image =
      Array.of_list
        (List.map
           (fun t ->
             match int_of_string_opt t with
             | Some v -> v
             | None -> invalid_arg ("Order.of_string: bad token " ^ t))
           tokens)
    in
    of_qubit_of_level image
