(* Compute-table invariants: lossy collisions are misses (never wrong
   values), counter bookkeeping, eviction accounting, sweep semantics,
   slots allocated on the first store. *)

open Util

let make ?(bits = 4) () =
  Dd.Compute_table.create ~name:"test" ~bits ~dummy:(-1)

(* find, then read the hit's value *)
let lookup t ~k1 ~k2 ~k3 =
  if Dd.Compute_table.find t ~k1 ~k2 ~k3 then Some (Dd.Compute_table.found t)
  else None

let test_find_after_store () =
  let t = make () in
  Dd.Compute_table.store t ~k1:1 ~k2:2 ~k3:3 42;
  check_bool "stored key found" true
    (lookup t ~k1:1 ~k2:2 ~k3:3 = Some 42);
  check_bool "other key absent" true
    (lookup t ~k1:9 ~k2:2 ~k3:3 = None)

(* A 2^1-slot table forces every pair of distinct keys to collide at
   some point; a lookup must never return a value stored under a
   different key. *)
let test_collisions_never_lie () =
  let t = make ~bits:1 () in
  let stored = Hashtbl.create 64 in
  let rng = Random.State.make [| 0xC0111 |] in
  for i = 0 to 499 do
    let k1 = Random.State.int rng 8
    and k2 = Random.State.int rng 8
    and k3 = Random.State.int rng 4 in
    if i land 1 = 0 then begin
      Dd.Compute_table.store t ~k1 ~k2 ~k3 i;
      Hashtbl.replace stored (k1, k2, k3) i
    end
    else
      match lookup t ~k1 ~k2 ~k3 with
      | None -> ()
      | Some v ->
        (* an occupied slot answers only for the full key it holds, so a
           hit must return the value most recently stored under exactly
           this key *)
        check_int
          (Printf.sprintf "lookup (%d,%d,%d) returns that key's value" k1
             k2 k3)
          (Hashtbl.find stored (k1, k2, k3))
          v
  done

let test_hits_plus_misses () =
  let t = make ~bits:2 () in
  let rng = Random.State.make [| 77 |] in
  for i = 0 to 299 do
    let k1 = Random.State.int rng 6 and k2 = Random.State.int rng 6 in
    if i mod 3 = 0 then Dd.Compute_table.store t ~k1 ~k2 ~k3:0 i
    else ignore (lookup t ~k1 ~k2 ~k3:0)
  done;
  let s = Dd.Compute_table.stats t in
  check_int "hits + misses = lookups" s.Dd.Compute_table.lookups
    (s.Dd.Compute_table.hits + s.Dd.Compute_table.misses);
  (* a never-stored table has no slots yet: every find misses, and is
     still counted, against the full 2^bits capacity *)
  let fresh = make ~bits:6 () in
  for k = 0 to 99 do
    check_bool "find on a never-stored table misses" true
      (lookup fresh ~k1:k ~k2:(k * 7) ~k3:(-k) = None)
  done;
  let s = Dd.Compute_table.stats fresh in
  check_int "every lookup counted" 100 s.Dd.Compute_table.lookups;
  check_int "all of them misses" 100 s.Dd.Compute_table.misses;
  check_int "capacity is 2^bits before any store" 64
    (Dd.Compute_table.capacity fresh);
  check_int "stats report 2^bits too" 64 s.Dd.Compute_table.capacity

let test_eviction_counting () =
  let t = make ~bits:1 () in
  let evictions () =
    (Dd.Compute_table.stats t).Dd.Compute_table.evictions
  in
  Dd.Compute_table.store t ~k1:1 ~k2:0 ~k3:0 10;
  check_int "first store evicts nothing" 0 (evictions ());
  Dd.Compute_table.store t ~k1:1 ~k2:0 ~k3:0 11;
  check_int "overwriting the same key is not an eviction" 0 (evictions ());
  (* find the key that collides with (1,0,0) by brute force: in a
     2-slot table at least one of these shares its slot *)
  let _collider =
    let rec search k =
      Dd.Compute_table.store t ~k1:1 ~k2:0 ~k3:0 11;
      Dd.Compute_table.store t ~k1:k ~k2:0 ~k3:0 99;
      if lookup t ~k1:1 ~k2:0 ~k3:0 = None then k
      else search (k + 1)
    in
    search 2
  in
  (* the slot now holds the collider; one colliding store = one eviction *)
  let before = evictions () in
  Dd.Compute_table.store t ~k1:1 ~k2:0 ~k3:0 12;
  check_int "a colliding store counts exactly one eviction" (before + 1)
    (evictions ())

let test_clear_drops_entries_keeps_counters () =
  let t = make () in
  Dd.Compute_table.store t ~k1:1 ~k2:1 ~k3:1 5;
  ignore (lookup t ~k1:1 ~k2:1 ~k3:1);
  Dd.Compute_table.clear t;
  check_int "no entries after clear" 0 (Dd.Compute_table.length t);
  check_bool "entry gone" true
    (lookup t ~k1:1 ~k2:1 ~k3:1 = None);
  let s = Dd.Compute_table.stats t in
  check_bool "lookup counter survives clear" true
    (s.Dd.Compute_table.lookups >= 1);
  let fresh = make () in
  Dd.Compute_table.clear fresh;
  check_int "clearing a never-stored table leaves it empty" 0
    (Dd.Compute_table.length fresh);
  let visited = ref 0 in
  Dd.Compute_table.iter (fun _ _ _ _ -> incr visited) fresh;
  check_int "iter visits nothing on a never-stored table" 0 !visited;
  Dd.Compute_table.store fresh ~k1:1 ~k2:1 ~k3:1 5;
  check_bool "the first store after a clear is found" true
    (lookup fresh ~k1:1 ~k2:1 ~k3:1 = Some 5)

let test_sweep_keeps_and_drops () =
  let t = make ~bits:8 () in
  for k = 0 to 9 do
    Dd.Compute_table.store t ~k1:k ~k2:0 ~k3:0 (k * k)
  done;
  (* colliding stores may have evicted some keys; take stock of what is
     actually resident before sweeping *)
  let resident parity =
    List.filter
      (fun k -> lookup t ~k1:k ~k2:0 ~k3:0 <> None)
      (List.filter (fun k -> k mod 2 = parity) [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ])
  in
  let even_in = resident 0 and odd_in = resident 1 in
  let before_gen = Dd.Compute_table.generation t in
  let dropped =
    Dd.Compute_table.sweep t ~keep:(fun k1 _ _ _ -> k1 mod 2 = 0)
  in
  check_int "generation bumped" (before_gen + 1)
    (Dd.Compute_table.generation t);
  check_int "exactly the resident odd keys dropped" (List.length odd_in)
    dropped;
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "even key %d survives" k)
        true
        (lookup t ~k1:k ~k2:0 ~k3:0 = Some (k * k)))
    even_in;
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "odd key %d dropped" k)
        true
        (lookup t ~k1:k ~k2:0 ~k3:0 = None))
    odd_in;
  check_int "invalidated counter" (List.length odd_in)
    (Dd.Compute_table.stats t).Dd.Compute_table.invalidated;
  let fresh = make () in
  check_int "sweeping a never-stored table drops nothing" 0
    (Dd.Compute_table.sweep fresh ~keep:(fun _ _ _ _ -> false));
  check_int "and still counts as a sweep" 1
    (Dd.Compute_table.generation fresh)

let test_create_rejects_bad_bits () =
  check_bool "bits 0 rejected" true
    (try
       ignore (Dd.Compute_table.create ~name:"bad" ~bits:0 ~dummy:0);
       false
     with Invalid_argument _ -> true);
  check_bool "bits 29 rejected" true
    (try
       ignore (Dd.Compute_table.create ~name:"bad" ~bits:29 ~dummy:0);
       false
     with Invalid_argument _ -> true)

let test_find_store_allocate_nothing () =
  (* after the first store has allocated the slots, the hot find/store
     paths allocate nothing: neither a miss, nor a hit and the read of
     its value *)
  let table = Dd.Compute_table.create ~name:"zeroalloc" ~bits:8 ~dummy:0 in
  Dd.Compute_table.store table ~k1:1 ~k2:2 ~k3:3 42;
  ignore (Sys.opaque_identity (Dd.Compute_table.find table ~k1:9 ~k2:9 ~k3:9));
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    Dd.Compute_table.store table ~k1:1 ~k2:2 ~k3:3 42;
    ignore
      (Sys.opaque_identity (Dd.Compute_table.find table ~k1:9 ~k2:9 ~k3:9))
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "100k find/store allocated %.0f words" allocated)
    true (allocated < 256.);
  let before = Gc.minor_words () and sum = ref 0 in
  for _ = 1 to 100_000 do
    if Dd.Compute_table.find table ~k1:1 ~k2:2 ~k3:3 then
      sum := !sum + Sys.opaque_identity (Dd.Compute_table.found table)
  done;
  let allocated = Gc.minor_words () -. before in
  check_int "every lookup hit" (100_000 * 42) !sum;
  check_bool
    (Printf.sprintf "100k hits allocated %.0f words" allocated)
    true (allocated < 256.)

(* A fresh context pays for its two 2^6-slot unique tables and a
   complex table of one 256-entry chunk with 2^8 bucket heads; its ten
   compute tables allocate their slots on first store, and the
   identity-node memo on Mdd.apply's first identity test.  Counted with
   [Obj.reachable_words]: [Gc.allocated_bytes] misses blocks allocated
   straight in the major heap.  The bound is 1,662 words, the reading
   before the identity memo, plus 5 %. *)
let test_context_create_is_small () =
  let ctx = Dd.Context.create () in
  let words = Obj.reachable_words (Obj.repr ctx) in
  check_bool
    (Printf.sprintf "a fresh context holds %d words (%.1f KiB; <= 1745)"
       words
       (float_of_int (8 * words) /. 1024.))
    true (words <= 1745);
  check_int "no identity memo yet" 0
    (Array.length ctx.Dd.Context.identity_ids)

(* The ledger reads the residency gauge at every window commit: it must
   cost nothing but arithmetic on sizes the tables already keep. *)
let test_residency_bytes_allocates_nothing () =
  let ctx = Dd.Context.create () in
  ignore (Dd.Vdd.basis ctx ~n:6 37);
  ignore (Sys.opaque_identity (Dd.Context.residency_bytes ctx));
  let before = Gc.minor_words () in
  for _ = 1 to 100_000 do
    ignore (Sys.opaque_identity (Dd.Context.residency_bytes ctx))
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "100k residency_bytes allocated %.0f words" allocated)
    true (allocated < 256.)

let suite =
  [
    Alcotest.test_case "find_after_store" `Quick test_find_after_store;
    Alcotest.test_case "collisions_never_lie" `Quick
      test_collisions_never_lie;
    Alcotest.test_case "hits_plus_misses" `Quick test_hits_plus_misses;
    Alcotest.test_case "eviction_counting" `Quick test_eviction_counting;
    Alcotest.test_case "clear_semantics" `Quick
      test_clear_drops_entries_keeps_counters;
    Alcotest.test_case "sweep" `Quick test_sweep_keeps_and_drops;
    Alcotest.test_case "create_bounds" `Quick test_create_rejects_bad_bits;
    Alcotest.test_case "find_store_allocate_nothing" `Quick
      test_find_store_allocate_nothing;
    Alcotest.test_case "context_create_is_small" `Quick
      test_context_create_is_small;
    Alcotest.test_case "residency_bytes_allocates_nothing" `Quick
      test_residency_bytes_allocates_nothing;
  ]
