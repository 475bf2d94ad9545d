(* The domain-parallel kernel's contract: a pool run must be an
   *observationally* faithful replacement for the sequential one.  At
   [--domains 1] the engine takes the legacy code paths, so the tests
   concentrate on what multi-domain runs promise — final amplitudes equal
   within the interning tolerance, sampling outcomes *exactly* identical
   across pool sizes, structured [Worker_failure] (never a crash or a
   leaked domain) when a task dies in a worker, and a pool whose results
   come back in submission order with exceptions captured per-task. *)

open Util

let with_fault ?seed plan body =
  Fault.arm ?seed plan;
  Fun.protect ~finally:Fault.disarm body

let amplitudes engine =
  let n = Dd_sim.Engine.qubits engine in
  Array.init (1 lsl n) (fun i -> Dd_sim.Engine.amplitude engine i)

let run_with ~domains ~k circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.set_domains engine domains;
  Dd_sim.Engine.run
    ~strategy:(Dd_sim.Strategy.K_operations k)
    engine circuit;
  engine

(* -- the pool itself ------------------------------------------------- *)

let test_pool_results_in_order () =
  let pool = Dd_sim.Domain_pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Dd_sim.Domain_pool.shutdown pool)
    (fun () ->
      check_int "pool size" 3 (Dd_sim.Domain_pool.size pool);
      let results =
        Dd_sim.Domain_pool.run_all pool
          (Array.init 20 (fun i () -> i * i))
      in
      Array.iteri
        (fun i r ->
          match r with
          | Ok v -> check_int (Printf.sprintf "task %d result" i) (i * i) v
          | Error e -> Alcotest.failf "task %d raised %s" i (Printexc.to_string e))
        results;
      (* a raising task is captured, not propagated, and its neighbours
         still complete *)
      let mixed =
        Dd_sim.Domain_pool.run_all pool
          [|
            (fun () -> 1);
            (fun () -> failwith "boom");
            (fun () -> 3);
          |]
      in
      (match mixed.(0) with
      | Ok 1 -> ()
      | _ -> Alcotest.fail "task 0 should succeed");
      (match mixed.(1) with
      | Error (Failure msg) when msg = "boom" -> ()
      | _ -> Alcotest.fail "task 1 exception should be captured");
      match mixed.(2) with
      | Ok 3 -> ()
      | _ -> Alcotest.fail "task 2 should succeed")

let test_pool_shutdown_idempotent () =
  let pool = Dd_sim.Domain_pool.create ~domains:2 in
  let r = Dd_sim.Domain_pool.run_all pool [| (fun () -> 42) |] in
  (match r.(0) with
  | Ok 42 -> ()
  | _ -> Alcotest.fail "single task");
  Dd_sim.Domain_pool.shutdown pool;
  Dd_sim.Domain_pool.shutdown pool;
  check_bool "invalid size rejected" true
    (match Dd_sim.Domain_pool.create ~domains:0 with
    | exception Invalid_argument _ -> true
    | pool ->
        Dd_sim.Domain_pool.shutdown pool;
        false)

let test_set_domains_validates () =
  let engine = Dd_sim.Engine.create 2 in
  check_int "default domains" 1 (Dd_sim.Engine.domains engine);
  Dd_sim.Engine.set_domains engine 4;
  check_int "domains recorded" 4 (Dd_sim.Engine.domains engine);
  check_bool "zero rejected" true
    (match Dd_sim.Engine.set_domains engine 0 with
    | exception Dd_sim.Error.Error (Dd_sim.Error.Invalid_parameter _) -> true
    | () -> false)

(* -- parallel runs agree with sequential ones ------------------------ *)

let test_run_matches_sequential () =
  let circuit = Standard.random_circuit ~seed:7 ~qubits:5 ~gates:40 () in
  let seq = run_with ~domains:1 ~k:4 circuit in
  let par = run_with ~domains:4 ~k:4 circuit in
  check_cnum_array "k:4 amplitudes, 4 domains vs 1" (amplitudes seq)
    (amplitudes par);
  check_int "stats record the pool size" 4
    (Dd_sim.Engine.stats par).Dd_sim.Sim_stats.domains;
  check_int "same gates seen"
    (Dd_sim.Engine.stats seq).Dd_sim.Sim_stats.gates_seen
    (Dd_sim.Engine.stats par).Dd_sim.Sim_stats.gates_seen

let test_combine_parallel_matches_combine () =
  let circuit = Standard.random_circuit ~seed:11 ~qubits:4 ~gates:12 () in
  let gates = Circuit.flatten circuit in
  let seq = Dd_sim.Engine.create 4 in
  let combined_seq = Dd_sim.Engine.combine seq gates in
  Dd_sim.Engine.apply_matrix seq combined_seq;
  let par = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.set_domains par 4;
  let mats = List.map (Dd_sim.Engine.gate_dd par) gates in
  let combined_par = Dd_sim.Engine.combine_parallel par mats in
  Dd_sim.Engine.apply_matrix par combined_par;
  check_cnum_array "tree-reduced product acts like the sequential fold"
    (amplitudes seq) (amplitudes par)

let prop_parallel_run_matches =
  QCheck.Test.make
    ~name:"parallel k-window runs match sequential amplitudes"
    ~count:15
    (QCheck.triple
       (QCheck.make
          ~print:(fun seed -> Printf.sprintf "random_circuit seed %d" seed)
          QCheck.Gen.(0 -- 10000))
       (QCheck.oneofl [ 2; 4 ])
       (QCheck.oneofl [ 2; 4 ]))
  @@ fun (seed, k, domains) ->
  let circuit = Standard.random_circuit ~seed ~qubits:4 ~gates:24 () in
  let seq = run_with ~domains:1 ~k circuit in
  let par = run_with ~domains ~k circuit in
  let a = amplitudes seq and b = amplitudes par in
  Array.for_all2
    (fun x y -> Dd_complex.Cnum.approx_equal ~tol:1e-9 x y)
    a b

(* -- sampling is exactly deterministic across pool sizes ------------- *)

let test_sample_shots_pool_independent () =
  let circuit = Standard.random_circuit ~seed:3 ~qubits:6 ~gates:50 () in
  let shots_with domains =
    let engine = Dd_sim.Engine.create ~seed:0xBEEF Circuit.(circuit.qubits) in
    Dd_sim.Engine.run engine circuit;
    Dd_sim.Engine.set_domains engine domains;
    Dd_sim.Engine.sample_shots engine 128
  in
  let one = shots_with 1 in
  let three = shots_with 3 in
  let four = shots_with 4 in
  check_int "shot count" 128 (Array.length one);
  check_bool "1 domain = 3 domains, bitwise" true (one = three);
  check_bool "1 domain = 4 domains, bitwise" true (one = four)

let test_sample_shots_edges () =
  let engine = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.set_domains engine 4;
  check_int "zero shots" 0 (Array.length (Dd_sim.Engine.sample_shots engine 0));
  check_bool "negative shots rejected" true
    (match Dd_sim.Engine.sample_shots engine (-1) with
    | exception Dd_sim.Error.Error (Dd_sim.Error.Invalid_parameter _) -> true
    | _ -> false);
  (* |000> state: every shot is 0, whatever the pool size *)
  let shots = Dd_sim.Engine.sample_shots engine 17 in
  Array.iteri (fun i s -> check_int (Printf.sprintf "shot %d" i) 0 s) shots

(* -- a task dying in a worker surfaces as Worker_failure ------------- *)

let test_worker_alloc_failure_is_structured () =
  (* Build the operation DDs *before* arming so construction cannot trip
     the fault; the first fresh product node inside the pooled reduction
     then hits [Alloc_fail] and must come back as the structured error,
     with every worker domain joined (combine_parallel's protect). *)
  let circuit = Standard.random_circuit ~seed:5 ~qubits:4 ~gates:8 () in
  let gates = Circuit.flatten circuit in
  let engine = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.set_domains engine 2;
  let mats = List.map (Dd_sim.Engine.gate_dd engine) gates in
  (match
     with_fault
       [ (Fault.Alloc_fail, Fault.Always) ]
       (fun () -> Dd_sim.Engine.combine_parallel engine mats)
   with
  | exception Dd_sim.Error.Error (Dd_sim.Error.Worker_failure { task; message })
    ->
      check_bool "failure names the parallel section" true
        (task = "window product");
      check_bool "failure carries the original exception" true
        (String.length message > 0)
  | exception e ->
      Alcotest.failf "expected Worker_failure, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Worker_failure, combine succeeded");
  (* the engine and its tables survive the failed attempt: the same
     combination succeeds once the fault is disarmed *)
  let combined = Dd_sim.Engine.combine_parallel engine mats in
  Dd_sim.Engine.apply_matrix engine combined;
  let seq = Dd_sim.Engine.create 4 in
  Dd_sim.Engine.apply_matrix seq (Dd_sim.Engine.combine seq gates);
  check_cnum_array "post-fault combine still correct" (amplitudes seq)
    (amplitudes engine)

let test_audit_passes_after_parallel_run () =
  let circuit = Standard.random_circuit ~seed:13 ~qubits:5 ~gates:60 () in
  let engine = run_with ~domains:4 ~k:4 circuit in
  check_int "auditor finds no violations after concurrent interning" 0
    (Dd_sim.Engine.audit_now engine)


(* -- utilization accounting ------------------------------------------ *)

let test_pool_utilization_accounting () =
  check_int "the caller's crew index is 0" 0 (Dd_sim.Domain_pool.self_index ());
  let pool = Dd_sim.Domain_pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Dd_sim.Domain_pool.shutdown pool)
    (fun () ->
      let indices = Array.make 24 (-1) in
      ignore
        (Dd_sim.Domain_pool.run_all pool
           (Array.init 24 (fun i () ->
                indices.(i) <- Dd_sim.Domain_pool.self_index ())));
      Array.iteri
        (fun i idx ->
          check_bool
            (Printf.sprintf "task %d ran on a crew index in [0,3)" i)
            true
            (idx >= 0 && idx < 3))
        indices;
      (* a raising task still counts toward utilization (a faulted run
         must report the time its crew actually spent) *)
      ignore
        (Dd_sim.Domain_pool.run_all pool
           [| (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) |]);
      let s = Dd_sim.Domain_pool.stats pool in
      check_int "batches counted" 2 s.Dd_sim.Domain_pool.batches;
      check_int "tasks counted, including the one that raised" 27
        (Array.fold_left ( + ) 0 s.Dd_sim.Domain_pool.worker_tasks);
      check_int "one task slot per crew member" 3
        (Array.length s.Dd_sim.Domain_pool.worker_tasks);
      check_int "one busy slot per crew member" 3
        (Array.length s.Dd_sim.Domain_pool.worker_busy_seconds);
      check_bool "busy time is non-negative" true
        (Array.for_all
           (fun b -> b >= 0.)
           s.Dd_sim.Domain_pool.worker_busy_seconds);
      check_bool "section time is non-negative" true
        (s.Dd_sim.Domain_pool.section_seconds >= 0.);
      Dd_sim.Domain_pool.reset_stats pool;
      let s = Dd_sim.Domain_pool.stats pool in
      check_int "reset clears batches" 0 s.Dd_sim.Domain_pool.batches;
      check_int "reset clears tasks" 0
        (Array.fold_left ( + ) 0 s.Dd_sim.Domain_pool.worker_tasks))

let test_run_absorbs_pool_stats () =
  let circuit = Standard.random_circuit ~seed:21 ~qubits:5 ~gates:40 () in
  let par = run_with ~domains:3 ~k:4 circuit in
  let stats = Dd_sim.Engine.stats par in
  check_bool "pool batches recorded" true
    (stats.Dd_sim.Sim_stats.pool_batches > 0);
  check_bool "pool tasks recorded" true
    (stats.Dd_sim.Sim_stats.pool_tasks > 0);
  check_bool "pool section time recorded" true
    (stats.Dd_sim.Sim_stats.pool_section_seconds > 0.);
  check_bool "busy fits inside crew capacity" true
    (stats.Dd_sim.Sim_stats.pool_busy_seconds
    <= (stats.Dd_sim.Sim_stats.pool_section_seconds *. 3.) +. 1e-3);
  check_bool "idle is non-negative" true
    (stats.Dd_sim.Sim_stats.pool_idle_seconds >= 0.);
  (* shared tables were armed, so stripe acquisitions were counted *)
  let total_acquisitions =
    List.fold_left
      (fun acc (_, (l : Dd.Compute_table.lock_stats)) ->
        acc + l.acquisitions)
      0
      (Dd.Context.lock_stats (Dd_sim.Engine.context par))
  in
  check_bool "parallel run counts lock acquisitions" true
    (total_acquisitions > 0)

let test_sequential_run_leaves_instrumentation_dark () =
  let circuit = Standard.random_circuit ~seed:21 ~qubits:5 ~gates:40 () in
  let seq = run_with ~domains:1 ~k:4 circuit in
  let stats = Dd_sim.Engine.stats seq in
  check_int "no pool batches at domains 1" 0
    stats.Dd_sim.Sim_stats.pool_batches;
  check_int "no pool tasks at domains 1" 0 stats.Dd_sim.Sim_stats.pool_tasks;
  check_bool "no pool time at domains 1" true
    (stats.Dd_sim.Sim_stats.pool_section_seconds = 0.);
  List.iter
    (fun (label, (l : Dd.Compute_table.lock_stats)) ->
      check_int
        (Printf.sprintf "no %s lock acquisitions at domains 1" label)
        0 l.acquisitions;
      check_int
        (Printf.sprintf "no %s contention at domains 1" label)
        0 l.contended;
      check_bool
        (Printf.sprintf "no %s wait time at domains 1" label)
        true
        (l.wait_seconds = 0.))
    (Dd.Context.lock_stats (Dd_sim.Engine.context seq))

let test_sequential_table_ops_allocate_nothing () =
  (* the stripe-lock counters are compiled into the hot find/store paths;
     with [set_parallel] off they must cost nothing — no locks taken, no
     allocation (the pre-instrumentation behaviour, bitwise) *)
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
    (Printf.sprintf "100k sequential find/store allocated %.0f words"
       allocated)
    true (allocated < 256.);
  let l = Dd.Compute_table.lock_stats table in
  check_int "sequential traffic never touches the lock counters" 0
    l.Dd.Compute_table.acquisitions

let test_concurrent_interning () =
  (* two domains intern overlapping streams into one table under its
     slow-path mutex; 9000 distinct values fill well over 2048 cells, so
     the index grows (4096 -> 8192 -> 16384 slots) while both race *)
  let open Dd_complex in
  let table = Ctable.create () in
  let stream lo hi noise =
    Array.init (hi - lo) (fun j ->
        Cnum.make ((float_of_int (lo + j) *. 1e-6) +. noise) (0.5 -. noise))
  in
  let intern_all inputs = Array.map (Ctable.intern table) inputs in
  let first = stream 0 6000 0. and second = stream 3000 9000 1e-14 in
  Ctable.set_parallel table true;
  let other = Domain.spawn (fun () -> intern_all second) in
  let mine = intern_all first in
  let theirs = Domain.join other in
  Ctable.set_parallel table false;
  let by_tag = Hashtbl.create 9000 in
  let size = Ctable.size table in
  let check inputs outputs =
    Array.iteri
      (fun i rep ->
        check_bool "representative is within tolerance of its input" true
          (Cnum.approx_equal rep inputs.(i));
        let tag = Cnum.tag rep in
        check_bool "tag below size" true (tag >= 0 && tag < size);
        match Hashtbl.find_opt by_tag tag with
        | Some seen ->
          check_bool "one tag, one representative" true (seen == rep)
        | None -> Hashtbl.add by_tag tag rep)
      outputs
  in
  check first mine;
  check second theirs;
  let reps = Hashtbl.length by_tag in
  check_int "the overlap merged: one representative per distinct value" 9000
    reps;
  check_int "size is the constants plus every representative" (2 + reps) size;
  check_bool "the slow path ran under the lock" true
    ((Ctable.lock_stats table).Ctable.acquisitions > 0)

let test_parallel_trace_has_lanes () =
  let circuit = Standard.random_circuit ~seed:17 ~qubits:5 ~gates:40 () in
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.set_domains engine 4;
  let trace = Obs.Trace.create () in
  Dd_sim.Engine.set_trace engine trace;
  Dd_sim.Engine.run
    ~strategy:(Dd_sim.Strategy.K_operations 4)
    engine circuit;
  check_bool "lanes were merged back before the run returned" false
    (Obs.Trace.lanes_armed trace);
  let events = Obs.Trace.events trace in
  let sections =
    Array.fold_left
      (fun n (e : Obs.Trace.event) ->
        if e.kind = Obs.Trace.Pool_section then n + 1 else n)
      0 events
  in
  check_bool "pool sections were traced" true (sections > 0);
  (* completion order must survive the lane merge *)
  let previous = ref neg_infinity in
  Array.iter
    (fun (e : Obs.Trace.event) ->
      let finish = e.t +. e.dur in
      check_bool "end times stay monotone after merging" true
        (finish >= !previous -. 1e-9);
      previous := finish)
    events

let suite =
  [
    Alcotest.test_case "pool returns results in submission order" `Quick
      test_pool_results_in_order;
    Alcotest.test_case "pool shutdown is idempotent; size validated" `Quick
      test_pool_shutdown_idempotent;
    Alcotest.test_case "set_domains validates its argument" `Quick
      test_set_domains_validates;
    Alcotest.test_case "4-domain k-window run matches sequential" `Quick
      test_run_matches_sequential;
    Alcotest.test_case "combine_parallel matches combine" `Quick
      test_combine_parallel_matches_combine;
    Alcotest.test_case "sample_shots is independent of the pool size" `Quick
      test_sample_shots_pool_independent;
    Alcotest.test_case "sample_shots edge cases" `Quick test_sample_shots_edges;
    Alcotest.test_case "worker allocation failure is a structured error"
      `Quick test_worker_alloc_failure_is_structured;
    Alcotest.test_case "auditor is clean after a parallel run" `Quick
      test_audit_passes_after_parallel_run;
    Alcotest.test_case "pool utilization accounting" `Quick
      test_pool_utilization_accounting;
    Alcotest.test_case "run absorbs pool stats" `Quick
      test_run_absorbs_pool_stats;
    Alcotest.test_case "sequential run leaves instrumentation dark" `Quick
      test_sequential_run_leaves_instrumentation_dark;
    Alcotest.test_case "sequential table ops allocate nothing" `Quick
      test_sequential_table_ops_allocate_nothing;
    Alcotest.test_case "two domains intern into one table" `Quick
      test_concurrent_interning;
    Alcotest.test_case "parallel traced run has lanes" `Quick
      test_parallel_trace_has_lanes;
  ]
  @ List.map QCheck_alcotest.to_alcotest [ prop_parallel_run_matches ]
