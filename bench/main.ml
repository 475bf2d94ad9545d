(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Zulehner & Wille, DATE 2019):

     Fig. 5   - DD sizes under Eq. 1 vs Eq. 2 (qualitative, node counts)
     Fig. 8   - speed-up of the k-operations strategy, per k
     Fig. 9   - speed-up of the max-size strategy, per s_max
     Table I  - grover benchmarks: sota / general / DD-repeating
     Table II - shor benchmarks: sota / general / DD-construct

   Usage: dune exec bench/main.exe [-- fig5|fig8|fig9|table1|table2|ablation|backends|guard|kernel|kernel-smoke|apply|apply-smoke|reorder|reorder-smoke|bechamel]*
                                   [-- --paper]

   [kernel] runs the shipped benchmarks/ circuits with a low GC
   high-water mark and records per-compute-table hit rates, evictions and
   GC pauses to BENCH_kernel.json; [kernel-smoke] is the single-run CI
   variant (written to BENCH_kernel_smoke.json so the committed full
   matrix is never clobbered).

   [apply] A/B-measures the structured-apply fast path against the
   explicit-gate-DD path (BENCH_apply.json); [apply-smoke] is the small
   CI variant (BENCH_apply_smoke.json), whose fast and generic sequential
   runs must agree on the final state DD node-for-node.

   With no arguments every experiment runs on default (laptop-scale)
   instances.  [--paper] switches to the paper's instance sizes — expect
   hours, exactly as the paper's 2-CPU-hour timeout suggests.  Absolute
   times differ from the paper (different machine/DD package); the shapes
   are the reproduction target (see EXPERIMENTS.md). *)

let wall f =
  let start = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. start)

(* every BENCH_*.json document: a schema tag and the rows, one per run *)
let write_runs ~out ~schema runs =
  Obs.Safe_io.write_file out
    (Printf.sprintf "{\n  \"schema\": \"%s\",\n  \"runs\": [\n%s\n  ]\n}\n"
       schema (String.concat ",\n" runs));
  Printf.printf "  wrote %s (%d runs)\n" out (List.length runs)

(* ------------------------------------------------------------------ *)
(* Benchmark cases: a name plus a strategy-parameterised run            *)
(* ------------------------------------------------------------------ *)

type case = { case_name : string; run : Dd_sim.Strategy.t -> unit }

let grover_case n =
  let marked = (0x5a5a5a lsr 2) land ((1 lsl n) - 1) in
  let circuit = Grover.circuit ~n ~marked () in
  {
    case_name = Printf.sprintf "grover_%d" n;
    run =
      (fun strategy ->
        let engine = Dd_sim.Engine.create n in
        Dd_sim.Engine.run ~strategy engine circuit);
  }

let shor_case (modulus, a) =
  {
    case_name =
      Printf.sprintf "shor_%d_%d_%d" modulus a (Shor.beauregard_qubits modulus);
    run =
      (fun strategy ->
        ignore
          (Shor.run_order_finding ~seed:11
             ~backend:(Shor.Beauregard strategy)
             ~a modulus));
  }

let supremacy_case (rows, cols, cycles) =
  let circuit = Supremacy.circuit ~rows ~cols ~cycles () in
  {
    case_name = Printf.sprintf "supremacy_%d_%d" cycles (rows * cols);
    run =
      (fun strategy ->
        let engine = Dd_sim.Engine.create (rows * cols) in
        Dd_sim.Engine.run ~strategy engine circuit);
  }

let default_cases () =
  [
    grover_case 12;
    grover_case 14;
    shor_case (15, 7);
    shor_case (21, 2);
    supremacy_case (4, 4, 8);
    supremacy_case (4, 4, 10);
  ]

let paper_cases () =
  [
    grover_case 23;
    grover_case 25;
    shor_case (1007, 602);
    shor_case (1851, 17);
    supremacy_case (5, 4, 15);
  ]

(* ------------------------------------------------------------------ *)
(* Fig. 8 / Fig. 9: strategy sweeps                                     *)
(* ------------------------------------------------------------------ *)

(* Short runs are re-measured (best of three) to dampen allocator noise;
   once a strategy point blows past its per-case budget the larger
   parameter values for that case are skipped and printed as "-" (the
   moral equivalent of the paper's timeout column). *)
let timed_run run strategy =
  let (), t1 = wall (fun () -> run strategy) in
  if t1 >= 0.3 then t1
  else begin
    let (), t2 = wall (fun () -> run strategy) in
    let (), t3 = wall (fun () -> run strategy) in
    min t1 (min t2 t3)
  end

let sweep ~title ~axis ~to_strategy ~values cases =
  Printf.printf "\n=== %s ===\n" title;
  Printf.printf "(speed-up of the strategy over sequential simulation; >1 \
                 is faster; - means the point exceeded its time budget and \
                 larger values were skipped)\n";
  let baselines =
    List.map
      (fun case -> (case.case_name, timed_run case.run Dd_sim.Strategy.Sequential))
      cases
  in
  let saturated = Hashtbl.create 8 in
  Printf.printf "%-8s" axis;
  List.iter (fun case -> Printf.printf " %16s" case.case_name) cases;
  Printf.printf " %10s\n" "average";
  Printf.printf "%-8s" "seq[s]";
  List.iter
    (fun (_, seconds) -> Printf.printf " %16.3f" seconds)
    baselines;
  Printf.printf "\n";
  List.iter
    (fun value ->
      Printf.printf "%-8d" value;
      let speedups =
        List.map
          (fun case ->
            if Hashtbl.mem saturated case.case_name then None
            else begin
              let baseline = List.assoc case.case_name baselines in
              let seconds = timed_run case.run (to_strategy value) in
              let budget = Float.max 5. (5. *. baseline) in
              if seconds > budget then
                Hashtbl.replace saturated case.case_name ();
              Some (baseline /. seconds)
            end)
          cases
      in
      let shown = List.filter_map (fun s -> s) speedups in
      List.iter
        (function
          | Some s -> Printf.printf " %16.2f" s
          | None -> Printf.printf " %16s" "-")
        speedups;
      let avg =
        match shown with
        | [] -> nan
        | _ :: _ ->
          List.fold_left ( +. ) 0. shown /. float_of_int (List.length shown)
      in
      Printf.printf " %10.2f\n" avg;
      flush stdout)
    values

let fig8 ~paper () =
  let cases = if paper then paper_cases () else default_cases () in
  sweep ~title:"Fig. 8: strategy k-operations (combine k gates per step)"
    ~axis:"k"
    ~to_strategy:(fun k -> Dd_sim.Strategy.K_operations k)
    ~values:
      (if paper then [ 1; 2; 4; 8; 16; 32; 64; 128 ]
       else [ 1; 2; 4; 8; 16; 32; 64 ])
    cases

let fig9 ~paper () =
  (* grover circuits pair tiny states with thousands of gates: large
     combined products make every further mat-mat expensive, so the big
     grover_12 instance is dropped from the default max-size sweep (the
     paper's Fig. 9 likewise shows grover gaining least from max-size) *)
  let cases =
    if paper then paper_cases ()
    else
      List.filter
        (fun case -> case.case_name <> "grover_12")
        (default_cases ())
  in
  sweep
    ~title:"Fig. 9: strategy max-size (combine until the product exceeds \
            s_max nodes)"
    ~axis:"s_max"
    ~to_strategy:(fun s -> Dd_sim.Strategy.Max_size s)
    ~values:[ 4; 16; 64; 256; 1024 ]
    cases

(* ------------------------------------------------------------------ *)
(* Fig. 5: node counts under Eq. 1 vs Eq. 2                             *)
(* ------------------------------------------------------------------ *)

let fig5 ~paper () =
  let rows, cols, cycles = if paper then (5, 4, 15) else (4, 4, 10) in
  let circuit = Supremacy.circuit ~rows ~cols ~cycles () in
  let n = rows * cols in
  let gates = Circuit.flatten circuit in
  let prefix_len = (List.length gates * 7) / 10 in
  let prefix = List.filteri (fun i _ -> i < prefix_len) gates in
  let rest = List.filteri (fun i _ -> i >= prefix_len) gates in
  let m1_gate, m2_gate =
    match rest with
    | a :: b :: _ -> (a, b)
    | [ _ ] | [] -> failwith "fig5: circuit too short"
  in
  Printf.printf
    "\n=== Fig. 5: computational effect of rearranging parentheses ===\n";
  Printf.printf
    "(supremacy %dx%d depth %d; v_i is the state after %d of %d gates)\n"
    rows cols cycles prefix_len (List.length gates);
  let engine = Dd_sim.Engine.create n in
  List.iter (Dd_sim.Engine.apply_gate engine) prefix;
  let ctx = Dd_sim.Engine.context engine in
  let v = Dd_sim.Engine.state engine in
  let m1 = Dd_sim.Engine.gate_dd engine m1_gate in
  let m2 = Dd_sim.Engine.gate_dd engine m2_gate in
  Printf.printf "  %-26s = %6d nodes\n" "|v_i|" (Dd.Vdd.node_count v);
  Printf.printf "  %-26s = %6d nodes\n"
    (Printf.sprintf "|M_i+1| (%s)" (Gate.name m1_gate))
    (Dd.Mdd.node_count m1);
  Printf.printf "  %-26s = %6d nodes\n"
    (Printf.sprintf "|M_i+2| (%s)" (Gate.name m2_gate))
    (Dd.Mdd.node_count m2);
  (* Eq. 1: two matrix-vector multiplications on the large vector *)
  Dd.Context.clear_compute_caches ctx;
  let (v1, t_mv1) = wall (fun () -> Dd.Mdd.apply ctx m1 v) in
  let (v2, t_mv2) = wall (fun () -> Dd.Mdd.apply ctx m2 v1) in
  Printf.printf "  %-26s = %6d nodes  (%.4f s)\n" "Eq.1: |M_i+1 x v_i|"
    (Dd.Vdd.node_count v1) t_mv1;
  Printf.printf "  %-26s = %6d nodes  (%.4f s)\n" "Eq.1: |M_i+2 x (...)|"
    (Dd.Vdd.node_count v2) t_mv2;
  (* Eq. 2: one matrix-matrix on small DDs, one matrix-vector *)
  Dd.Context.clear_compute_caches ctx;
  let (m21, t_mm) = wall (fun () -> Dd.Mdd.mul ctx m2 m1) in
  let (v2', t_mv) = wall (fun () -> Dd.Mdd.apply ctx m21 v) in
  Printf.printf "  %-26s = %6d nodes  (%.4f s)\n" "Eq.2: |M_i+2 x M_i+1|"
    (Dd.Mdd.node_count m21) t_mm;
  Printf.printf "  %-26s = %6d nodes  (%.4f s)\n" "Eq.2: |(M x M) x v_i|"
    (Dd.Vdd.node_count v2') t_mv;
  Printf.printf
    "  -> the combined matrix stays tiny while the state is large: one\n\
    \     traversal of the big vector instead of two (paper, Example 3)\n"

(* ------------------------------------------------------------------ *)
(* Table I: grover with DD-repeating                                    *)
(* ------------------------------------------------------------------ *)

let general_strategies =
  [
    Dd_sim.Strategy.K_operations 8;
    Dd_sim.Strategy.K_operations 32;
    Dd_sim.Strategy.Max_size 128;
  ]

let best_general run =
  List.fold_left
    (fun (best_strategy, best_time) strategy ->
      let (), seconds = wall (fun () -> run strategy) in
      if seconds < best_time then (strategy, seconds)
      else (best_strategy, best_time))
    (Dd_sim.Strategy.Sequential, infinity)
    general_strategies

let table1 ~paper () =
  let sizes = if paper then [ 23; 25; 27; 29 ] else [ 12; 14; 16; 18 ] in
  Printf.printf "\n=== Table I: grover benchmarks (strategy DD-repeating) ===\n";
  Printf.printf "%-12s %12s %12s %16s\n" "Benchmark" "t_sota[s]" "t_general[s]"
    "t_DD-repeating[s]";
  List.iter
    (fun n ->
      let case = grover_case n in
      let (), t_sota = wall (fun () -> case.run Dd_sim.Strategy.Sequential) in
      let _, t_general = best_general case.run in
      let marked = (0x5a5a5a lsr 2) land ((1 lsl n) - 1) in
      let circuit = Grover.circuit ~n ~marked () in
      let (), t_repeating =
        wall (fun () ->
            let engine = Dd_sim.Engine.create n in
            Dd_sim.Engine.run ~use_repeating:true engine circuit)
      in
      Printf.printf "%-12s %12.3f %12.3f %16.3f\n" case.case_name t_sota
        t_general t_repeating;
      flush stdout)
    sizes

(* ------------------------------------------------------------------ *)
(* Table II: shor with DD-construct                                     *)
(* ------------------------------------------------------------------ *)

let table2 ~paper () =
  let instances =
    if paper then
      [ (1007, 602); (1851, 17); (2561, 2409); (8193, 1024) ]
    else [ (15, 7); (21, 2); (33, 5); (55, 17) ]
  in
  Printf.printf "\n=== Table II: shor benchmarks (strategy DD-construct) ===\n";
  Printf.printf "%-18s %12s %12s %16s\n" "Benchmark" "t_sota[s]"
    "t_general[s]" "t_DD-construct[s]";
  List.iter
    (fun (modulus, a) ->
      let case = shor_case (modulus, a) in
      let (), t_sota = wall (fun () -> case.run Dd_sim.Strategy.Sequential) in
      let _, t_general = best_general case.run in
      let (), t_construct =
        wall (fun () ->
            ignore
              (Shor.run_order_finding ~seed:11 ~backend:Shor.Direct ~a modulus))
      in
      Printf.printf "%-18s %12.3f %12.3f %16.4f\n" case.case_name t_sota
        t_general t_construct;
      flush stdout)
    instances

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                    *)
(* ------------------------------------------------------------------ *)

(* (a) compute caches: the memoisation of sub-products is what makes DD
   multiplication cheap; dropping the caches after every gate shows how
   much of the paper's effect depends on them.
   (b) DD-repeating re-use: combining the repeated block each iteration
   (mat-mat work every time) vs combining once and re-applying shows the
   "can be easily re-used for all further iterations" benefit.
   (c) DD-construct on Grover: the oracle as a directly-built diagonal
   (this repository's extension of the paper's Shor-only DD-construct). *)

let ablation () =
  Printf.printf "\n=== Ablations ===\n";
  (* (a) compute caches *)
  let circuit = Supremacy.circuit ~rows:4 ~cols:4 ~cycles:8 () in
  let gates = Circuit.flatten circuit in
  let run_with_caches ~keep =
    let engine = Dd_sim.Engine.create 16 in
    let ctx = Dd_sim.Engine.context engine in
    List.iter
      (fun gate ->
        Dd_sim.Engine.apply_gate engine gate;
        if not keep then Dd.Context.clear_compute_caches ctx)
      gates
  in
  let (), with_caches = wall (fun () -> run_with_caches ~keep:true) in
  let (), without_caches = wall (fun () -> run_with_caches ~keep:false) in
  Printf.printf
    "  compute caches (supremacy 4x4 d8, sequential):\n\
    \    kept across gates   %8.3f s\n\
    \    dropped after each  %8.3f s   (%.2fx slower)\n"
    with_caches without_caches (without_caches /. with_caches);
  (* (b) DD-repeating re-use *)
  let n = 14 in
  let marked = 1 lsl (n - 2) in
  let grover = Grover.circuit ~n ~marked () in
  let (), reuse = wall (fun () ->
      let engine = Dd_sim.Engine.create n in
      Dd_sim.Engine.run ~use_repeating:true engine grover)
  in
  let (), recombine = wall (fun () ->
      let engine = Dd_sim.Engine.create n in
      List.iter (Dd_sim.Engine.apply_gate engine) (List.init n Gate.h);
      let body = Grover.oracle_gates ~n ~marked @ Grover.diffusion_gates ~n in
      for _ = 1 to Grover.iterations n do
        (* rebuild the combined block every iteration: no re-use *)
        Dd_sim.Engine.apply_matrix engine (Dd_sim.Engine.combine engine body)
      done)
  in
  Printf.printf
    "  DD-repeating re-use (grover_%d):\n\
    \    combine once, re-apply      %8.3f s\n\
    \    recombine every iteration   %8.3f s   (%.2fx slower)\n"
    n reuse recombine (recombine /. reuse);
  (* (c) DD-construct for the Grover oracle *)
  let (), via_gates = wall (fun () ->
      let engine = Dd_sim.Engine.create n in
      Dd_sim.Engine.run ~use_repeating:true engine grover)
  in
  let (), via_construct = wall (fun () ->
      ignore (Grover.run_construct ~n ~marked ()))
  in
  Printf.printf
    "  DD-construct extension (grover_%d oracle as direct diagonal):\n\
    \    gate-built oracle, DD-repeating  %8.3f s\n\
    \    directly-constructed iteration   %8.3f s\n"
    n via_gates via_construct;
  (* (d') complex-number merge tolerance (the accuracy/compactness
     trade-off of the paper's reference [21]): a radius of 1e-10 wrongly
     merges distinct amplitudes at the 2^(-n/2) scale and fragments the
     grover_20 state; 1e-12 keeps it at exactly 2n-1 nodes *)
  Printf.printf
    "  complex merge tolerance (grover_20 state nodes per iteration):\n";
  List.iter
    (fun tolerance ->
      let ctx = Dd.Context.create ~tolerance () in
      let engine = Dd_sim.Engine.create ~context:ctx 20 in
      List.iter (Dd_sim.Engine.apply_gate engine) (List.init 20 Gate.h);
      let body =
        Grover.oracle_gates ~n:20 ~marked:5 @ Grover.diffusion_gates ~n:20
      in
      Printf.printf "    tol=%-8g" tolerance;
      for _ = 1 to 4 do
        List.iter (Dd_sim.Engine.apply_gate engine) body;
        Printf.printf " %6d" (Dd_sim.Engine.state_node_count engine)
      done;
      Printf.printf "\n")
    [ 1e-10; 1e-12 ];
  (* (d) edge weights: the paper's Fig. 2 size argument on real states *)
  Printf.printf
    "  edge weights (weighted vs unweighted DD size of final states):\n";
  let compare_sizes label prepare =
    let engine, width = prepare () in
    let state = Dd_sim.Engine.state engine in
    let unweighted =
      Dd.Unweighted.of_vdd (Dd_sim.Engine.context engine) state
    in
    Printf.printf "    %-22s %8d weighted   %8d unweighted nodes\n" label
      (Dd.Vdd.node_count state)
      (Dd.Unweighted.total_count unweighted);
    ignore width
  in
  compare_sizes "qft_12 of |1>" (fun () ->
      let engine = Dd_sim.Engine.create 12 in
      Dd_sim.Engine.apply_gate engine (Gate.x 0);
      Dd_sim.Engine.run engine (Qft.circuit 12);
      (engine, 12));
  compare_sizes "grover_12 final" (fun () ->
      let engine = Dd_sim.Engine.create 12 in
      Dd_sim.Engine.run engine (Grover.circuit ~n:12 ~marked:1234 ());
      (engine, 12));
  compare_sizes "supremacy 4x4 d8" (fun () ->
      let engine = Dd_sim.Engine.create 16 in
      Dd_sim.Engine.run engine
        (Supremacy.circuit ~rows:4 ~cols:4 ~cycles:8 ());
      (engine, 16));
  (* (e) approximation: truncation threshold vs fidelity and DD size *)
  Printf.printf
    "  truncation (supremacy 3x3 d12 state; threshold -> nodes, fidelity):\n";
  let engine = Dd_sim.Engine.create 9 in
  Dd_sim.Engine.run engine (Supremacy.circuit ~rows:3 ~cols:3 ~cycles:12 ());
  let ctx = Dd_sim.Engine.context engine in
  let state = Dd_sim.Engine.state engine in
  List.iter
    (fun threshold ->
      let truncated = Dd.Vdd.truncate ctx ~threshold state in
      let fidelity =
        Dd_complex.Cnum.mag2 (Dd.Vdd.dot ctx state truncated)
      in
      Printf.printf "    %-9g %6d nodes (of %d)   fidelity %.4f\n" threshold
        (Dd.Vdd.node_count truncated)
        (Dd.Vdd.node_count state) fidelity)
    [ 1e-6; 1e-3; 1e-2; 3e-2; 1e-1 ]

(* ------------------------------------------------------------------ *)
(* Backend comparison: DD vs dense array vs sparse hash map             *)
(* ------------------------------------------------------------------ *)

(* The paper's Section III motivation in miniature: representation size
   drives cost, and which representation is small depends on the state's
   structure, not its width. *)
let backends () =
  Printf.printf "\n=== Backend comparison (DD vs dense array vs sparse) ===\n";
  Printf.printf "%-18s %10s %8s %10s %10s %10s\n" "benchmark" "dd[s]"
    "dd-nodes" "dense[s]" "sparse[s]" "support";
  let row ?(sparse = true) name circuit =
    let n = Circuit.(circuit.qubits) in
    let (dd_nodes, dd_time) =
      wall (fun () ->
          let engine = Dd_sim.Engine.create n in
          Dd_sim.Engine.run engine circuit;
          Dd_sim.Engine.state_node_count engine)
    in
    let dense_cell =
      if n > 24 then "      (2^n)"
      else begin
        let ((), dense_time) =
          wall (fun () ->
              let state = Dense_state.create n in
              Dense_state.run state circuit)
        in
        Printf.sprintf "%10.3f" dense_time
      end
    in
    let sparse_cells =
      if not sparse then "         -          -"
      else begin
        let (support, sparse_time) =
          wall (fun () ->
              let state = Sparse_state.create n in
              Sparse_state.run state circuit;
              Sparse_state.support_size state)
        in
        Printf.sprintf "%10.3f %10d" sparse_time support
      end
    in
    Printf.printf "%-18s %10.3f %8d %s %s\n" name dd_time dd_nodes
      dense_cell sparse_cells;
    flush stdout
  in
  row "ghz_20" (Standard.ghz 20);
  row "ghz_48" (Standard.ghz 48);
  row "qft_14 (of |1>)"
    (Circuit.of_gates ~qubits:14
       (Gate.x 0 :: Circuit.flatten (Qft.circuit 14)));
  row "grover_12" (Grover.circuit ~n:12 ~marked:1234 ());
  (* sparse would need the full 2^28 support here: skipped.  The DD
     should stay linear like ghz_48, but its state fragments from the
     fourth Grover iteration on, even gate by gate, and the row does not
     finish: the canonicity defect ROADMAP.md's first item tracks *)
  row ~sparse:false "grover_28"
    (Grover.circuit ~iterations:50 ~n:28 ~marked:12345 ());
  row "supremacy_4x4_8" (Supremacy.circuit ~rows:4 ~cols:4 ~cycles:8 ());
  Printf.printf
    "  -> representation sizes track structure, not width: the dense \
     array always pays 2^n and cannot go past ~30 qubits at all, while \
     ghz_48 keeps a linear-size DD; sparsity helps only while the \
     support stays small; unstructured supremacy states are where all \
     representations degrade and the paper's combination strategies \
     matter.\n"

(* ------------------------------------------------------------------ *)
(* Guard overhead: the resilience layer must be zero-cost when off      *)
(* ------------------------------------------------------------------ *)

let guard_overhead () =
  Printf.printf "\n=== Guard overhead (resource-governed runtime) ===\n";
  Printf.printf
    "(budget checks run between multiplications; with no budgets set they \
     must cost nothing measurable)\n";
  let circuit = Supremacy.circuit ~rows:4 ~cols:4 ~cycles:8 () in
  let n = 16 in
  let strategy = Dd_sim.Strategy.K_operations 8 in
  let best runner =
    let t () = snd (wall runner) in
    min (t ()) (min (t ()) (t ()))
  in
  let time_with ?guard () =
    best (fun () ->
        let engine = Dd_sim.Engine.create n in
        Dd_sim.Engine.run ~strategy ?guard engine circuit)
  in
  let unguarded = time_with () in
  let explicit_none = time_with ~guard:Dd_sim.Guard.none () in
  let armed =
    time_with
      ~guard:
        (Dd_sim.Guard.make ~deadline:3600. ~norm_tolerance:0.5
           ~gc_high_water:max_int ~max_live_nodes:max_int ())
      ()
  in
  Printf.printf
    "  supremacy 4x4 d8, k:8:\n\
    \    no guard argument      %8.3f s\n\
    \    Guard.none             %8.3f s   (%.2fx)\n\
    \    all budgets armed,     %8.3f s   (%.2fx)\n\
    \    none binding\n"
    unguarded explicit_none
    (explicit_none /. unguarded)
    armed (armed /. unguarded);
  (* graceful degradation at work: a tight combined-matrix budget turns
     combination windows into sequential tails instead of failures *)
  let fallback_engine = Dd_sim.Engine.create n in
  let (), fallback_seconds =
    wall (fun () ->
        Dd_sim.Engine.run ~strategy
          ~guard:(Dd_sim.Guard.make ~max_matrix_nodes:16 ())
          fallback_engine circuit)
  in
  let stats = Dd_sim.Engine.stats fallback_engine in
  Printf.printf
    "    16-node matrix budget  %8.3f s   (%d windows fell back to \
     sequential; state exact)\n"
    fallback_seconds stats.Dd_sim.Sim_stats.fallbacks

(* ------------------------------------------------------------------ *)
(* Kernel observability: machine-readable BENCH_kernel.json             *)
(* ------------------------------------------------------------------ *)

(* One run per (shipped benchmark circuit, strategy) pair, with a low GC
   high-water mark so the generation-aware sweeps actually execute; the
   per-table counters and pause totals land in BENCH_kernel.json for
   regression tracking. *)

let load_benchmark name =
  (* works both from the repository root and from _build/default/bench *)
  let candidates =
    [
      Filename.concat "benchmarks" name;
      Filename.concat "../benchmarks" name;
      Filename.concat "../../../benchmarks" name;
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> failwith (Printf.sprintf "cannot locate benchmarks/%s" name)
  | Some path ->
    let ic = open_in path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Qasm.of_string ~name text

let kernel_run_json ~benchmark ~strategy =
  let circuit = load_benchmark (benchmark ^ ".qasm") in
  let ctx = Dd.Context.create () in
  let engine = Dd_sim.Engine.create ~context:ctx Circuit.(circuit.qubits) in
  Dd_sim.Engine.set_track_peaks engine true;
  let guard = Dd_sim.Guard.make ~gc_high_water:512 () in
  let (), seconds =
    wall (fun () -> Dd_sim.Engine.run ~strategy ~guard engine circuit)
  in
  let stats = Dd_sim.Engine.stats engine in
  let gc = Dd.Context.gc_stats ctx in
  let table_json (s : Dd.Compute_table.stats) =
    let rate =
      if s.Dd.Compute_table.lookups = 0 then 0.
      else
        float_of_int s.Dd.Compute_table.hits
        /. float_of_int s.Dd.Compute_table.lookups
    in
    Printf.sprintf
      "{\"name\": %S, \"lookups\": %d, \"hits\": %d, \"hit_rate\": %.6f, \
       \"stores\": %d, \"evictions\": %d, \"invalidated\": %d, \
       \"entries\": %d}"
      s.Dd.Compute_table.table s.Dd.Compute_table.lookups
      s.Dd.Compute_table.hits rate s.Dd.Compute_table.stores
      s.Dd.Compute_table.evictions s.Dd.Compute_table.invalidated
      s.Dd.Compute_table.entries
  in
  let tables =
    Dd.Context.table_stats ctx |> List.map table_json
    |> String.concat ",\n        "
  in
  Printf.sprintf
    "    {\n\
     \      \"benchmark\": %S,\n\
     \      \"strategy\": %S,\n\
     \      \"wall_seconds\": %.6f,\n\
     \      \"final_state_nodes\": %d,\n\
     \      \"peak_state_nodes\": %d,\n\
     \      \"peak_matrix_nodes\": %d,\n\
     \      \"auto_gcs\": %d,\n\
     \      \"gc_collections\": %d,\n\
     \      \"gc_pause_seconds\": %.6f,\n\
     \      \"gc_reclaimed_nodes\": %d,\n\
     \      \"tables\": [\n\
     \        %s\n\
     \      ]\n\
     \    }"
    benchmark
    (Dd_sim.Strategy.to_string strategy)
    seconds
    (Dd_sim.Engine.state_node_count engine)
    stats.Dd_sim.Sim_stats.peak_state_nodes
    stats.Dd_sim.Sim_stats.peak_matrix_nodes
    stats.Dd_sim.Sim_stats.auto_gcs gc.Dd.Context.collections
    gc.Dd.Context.pause_total stats.Dd_sim.Sim_stats.gc_reclaimed_nodes
    tables

(* the smoke variant writes to its own file so a CI run can never clobber
   the committed full-matrix BENCH_kernel.json *)
let kernel ~smoke () =
  let out = if smoke then "BENCH_kernel_smoke.json" else "BENCH_kernel.json" in
  Printf.printf "\n=== Kernel observability (%s) ===\n" out;
  let benchmarks =
    if smoke then [ "ghz_12" ]
    else [ "ghz_12"; "qft_8"; "bv_16_42"; "random_6_80" ]
  in
  let strategies =
    if smoke then [ Dd_sim.Strategy.Sequential ]
    else [ Dd_sim.Strategy.Sequential; Dd_sim.Strategy.K_operations 4 ]
  in
  let runs =
    List.concat_map
      (fun benchmark ->
        List.map
          (fun strategy ->
            Printf.printf "  %s / %s\n" benchmark
              (Dd_sim.Strategy.to_string strategy);
            flush stdout;
            kernel_run_json ~benchmark ~strategy)
          strategies)
      benchmarks
  in
  write_runs ~out ~schema:"ddsim-kernel-bench-1" runs

(* ------------------------------------------------------------------ *)
(* Structured-apply fast path: BENCH_apply.json                         *)
(* ------------------------------------------------------------------ *)

(* Each circuit runs three ways: sequential with the structured-apply
   kernel (the default), sequential through explicit gate DDs
   (--no-fused-apply), and a k-operations window run (where only the
   sequential tails of breached windows can use the fast path).  The
   fast and generic sequential runs must agree on the final state DD
   exactly; CI checks that invariant on the smoke variant. *)

(* The strategy-ledger columns of the apply rows: windows and fallbacks
   committed, attributed seconds per strategy, and the share of the wall
   clock the ledger covers. *)
let ledger_fields ledger (stats : Dd_sim.Sim_stats.t) =
  let lt = Obs.Ledger.totals (Obs.Ledger.entries ledger) in
  let attributed =
    Obs.Ledger.total_build_seconds ledger
    +. Obs.Ledger.total_apply_seconds ledger
  in
  let coverage =
    let wall = stats.Dd_sim.Sim_stats.wall_time_seconds in
    if wall > 0. then attributed /. wall else 0.
  in
  Printf.sprintf
    "      \"ledger_windows\": %d,\n\
     \      \"ledger_fallbacks\": %d,\n\
     \      \"ledger_mat_vec_seconds\": %.6f,\n\
     \      \"ledger_mat_mat_build_seconds\": %.6f,\n\
     \      \"ledger_mat_mat_apply_seconds\": %.6f,\n\
     \      \"ledger_wall_coverage\": %.6f"
    lt.Obs.Ledger.mm_entries lt.Obs.Ledger.fb_entries
    (lt.Obs.Ledger.mv_build +. lt.Obs.Ledger.mv_apply)
    lt.Obs.Ledger.mm_build lt.Obs.Ledger.mm_apply coverage

let apply_run_json ~circuit_name ~mode ~strategy ~fused circuit =
  (* best of three, each in a fresh package instance (same policy as
     [timed_run]); counters are identical across repetitions, so they are
     reported from the last one *)
  let one ?ledger () =
    let ctx = Dd.Context.create () in
    let engine =
      Dd_sim.Engine.create ~context:ctx Circuit.(circuit.qubits)
    in
    Dd_sim.Engine.set_fused_apply engine fused;
    (match ledger with
    | None -> ()
    | Some sink -> Dd_sim.Engine.set_ledger engine sink);
    let (), seconds =
      wall (fun () -> Dd_sim.Engine.run ~strategy engine circuit)
    in
    (ctx, engine, seconds)
  in
  let _, _, t1 = one () in
  let _, _, t2 = one () in
  (* the strategy ledger rides on the last repetition only; its timing
     columns are attribution data (bench-check informational), while
     min-of-three keeps the wall_seconds column honest *)
  let ledger = Obs.Ledger.create () in
  let ctx, engine, t3 = one ~ledger () in
  let seconds = min t1 (min t2 t3) in
  let stats = Dd_sim.Engine.stats engine in
  let table name =
    List.find
      (fun (s : Dd.Compute_table.stats) -> s.Dd.Compute_table.table = name)
      (Dd.Context.table_stats ctx)
  in
  let mul_mv = table "mul_mv" and apply = table "apply" in
  let apply_hit_rate =
    if apply.Dd.Compute_table.lookups = 0 then 0.
    else
      float_of_int apply.Dd.Compute_table.hits
      /. float_of_int apply.Dd.Compute_table.lookups
  in
  Printf.sprintf
    "    {\n\
     \      \"circuit\": %S,\n\
     \      \"mode\": %S,\n\
     \      \"strategy\": %S,\n\
     \      \"fused\": %b,\n\
     \      \"wall_seconds\": %.6f,\n\
     \      \"final_state_nodes\": %d,\n\
     \      \"mat_vec_mults\": %d,\n\
     \      \"fast_path_applies\": %d,\n\
     \      \"generic_applies\": %d,\n\
     \      \"apply_ident_skips\": %d,\n\
     \      \"mul_mv_lookups\": %d,\n\
     \      \"apply_lookups\": %d,\n\
     \      \"apply_hits\": %d,\n\
     \      \"apply_hit_rate\": %.6f,\n\
     \      \"apply_evictions\": %d,\n\
     %s\n\
     \    }"
    circuit_name mode
    (Dd_sim.Strategy.to_string strategy)
    fused seconds
    (Dd_sim.Engine.state_node_count engine)
    stats.Dd_sim.Sim_stats.mat_vec_mults
    stats.Dd_sim.Sim_stats.fast_path_applies
    stats.Dd_sim.Sim_stats.generic_applies
    (Dd.Context.apply_skips ctx) mul_mv.Dd.Compute_table.lookups
    apply.Dd.Compute_table.lookups apply.Dd.Compute_table.hits apply_hit_rate
    apply.Dd.Compute_table.evictions (ledger_fields ledger stats)

let apply_bench ~smoke () =
  let out = if smoke then "BENCH_apply_smoke.json" else "BENCH_apply.json" in
  Printf.printf "\n=== Structured-apply fast path (%s) ===\n" out;
  let circuits =
    if smoke then
      [
        ("ghz_12", Standard.ghz 12);
        ("qft_8", Qft.circuit 8);
        ("grover_8", Grover.circuit ~n:8 ~marked:5 ());
      ]
    else
      [
        ("ghz_20", Standard.ghz 20);
        ("qft_14", Qft.circuit 14);
        ("grover_16", Grover.circuit ~n:16 ~marked:12345 ());
        ("supremacy_4x4_8", Supremacy.circuit ~rows:4 ~cols:4 ~cycles:8 ());
      ]
  in
  let modes =
    [
      ("seq_fast", Dd_sim.Strategy.Sequential, true);
      ("seq_generic", Dd_sim.Strategy.Sequential, false);
      ("k4_fast", Dd_sim.Strategy.K_operations 4, true);
    ]
  in
  let runs =
    List.concat_map
      (fun (circuit_name, circuit) ->
        List.map
          (fun (mode, strategy, fused) ->
            Printf.printf "  %s / %s\n" circuit_name mode;
            flush stdout;
            apply_run_json ~circuit_name ~mode ~strategy ~fused circuit)
          modes)
      circuits
  in
  write_runs ~out ~schema:"ddsim-apply-bench-1" runs

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure            *)
(* ------------------------------------------------------------------ *)

let bechamel_suite () =
  let open Bechamel in
  let test_fig8 =
    Test.make ~name:"fig8/k-operations grover_10"
      (Staged.stage (fun () ->
           (grover_case 10).run (Dd_sim.Strategy.K_operations 16)))
  in
  let test_fig9 =
    Test.make ~name:"fig9/max-size supremacy_3x3"
      (Staged.stage (fun () ->
           (supremacy_case (3, 3, 8)).run (Dd_sim.Strategy.Max_size 256)))
  in
  let test_table1 =
    Test.make ~name:"table1/DD-repeating grover_10"
      (Staged.stage (fun () ->
           let circuit = Grover.circuit ~n:10 ~marked:333 () in
           let engine = Dd_sim.Engine.create 10 in
           Dd_sim.Engine.run ~use_repeating:true engine circuit))
  in
  let test_table2 =
    Test.make ~name:"table2/DD-construct shor_15"
      (Staged.stage (fun () ->
           ignore
             (Shor.run_order_finding ~seed:11 ~backend:Shor.Direct ~a:7 15)))
  in
  let test_fig5 =
    Test.make ~name:"fig5/mat-mat vs mat-vec supremacy_3x3"
      (Staged.stage (fun () ->
           (supremacy_case (3, 3, 8)).run (Dd_sim.Strategy.K_operations 2)))
  in
  let grouped =
    Test.make_grouped ~name:"ddsim"
      [ test_fig5; test_fig8; test_fig9; test_table1; test_table2 ]
  in
  Printf.printf "\n=== Bechamel micro-benchmarks (one per table/figure) ===\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc -> (name, ols_result) :: acc)
      results []
    |> List.sort compare
  in
  Printf.printf "%-44s %16s %8s\n" "benchmark" "time/run" "r^2";
  List.iter
    (fun (name, ols_result) ->
      let estimate =
        match Analyze.OLS.estimates ols_result with
        | Some (value :: _) -> value
        | Some [] | None -> nan
      in
      let r2 =
        match Analyze.OLS.r_square ols_result with
        | Some r2 -> r2
        | None -> nan
      in
      Printf.printf "%-44s %13.3f ms %8.4f\n" name (estimate /. 1e6) r2)
    rows

(* ------------------------------------------------------------------ *)
(* Trace trajectories: BENCH_trace.json                                 *)
(* ------------------------------------------------------------------ *)

(* One traced run per (circuit, strategy): the per-gate state-DD
   node-count trajectory — the Fig. 3-style curve, DD size over the
   *course* of the simulation rather than just at its end — is extracted
   from the recorded event timeline with the same analysis `ddsim report`
   uses, then downsampled to a bounded number of points.  Downsampling
   keeps each bucket's maximum (the peak survives exactly) plus the final
   point. *)

let downsample_trajectory ~max_points points =
  let n = List.length points in
  if n <= max_points then points
  else begin
    let samples = Array.of_list points in
    let bucket = Array.make max_points None in
    Array.iteri
      (fun i (g, v) ->
        let c = i * max_points / n in
        match bucket.(c) with
        | Some (_, best) when best >= v -> ()
        | _ -> bucket.(c) <- Some (g, v))
      samples;
    let kept = Array.to_list bucket |> List.filter_map (fun p -> p) in
    let final = samples.(n - 1) in
    if List.mem final kept then kept else kept @ [ final ]
  end

let trace_run_json ~circuit_name ~strategy circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  let trace = Obs.Trace.create () in
  Dd_sim.Engine.set_trace engine trace;
  let (), seconds =
    wall (fun () -> Dd_sim.Engine.run ~strategy engine circuit)
  in
  let run =
    {
      Obs.Trace_report.meta = [];
      events = Array.to_list (Obs.Trace.events trace);
      dropped = Obs.Trace.dropped trace;
    }
  in
  let trajectory =
    downsample_trajectory ~max_points:240 (Obs.Trace_report.trajectory run)
  in
  let stats = Dd_sim.Engine.stats engine in
  Printf.sprintf
    "    {\n\
     \      \"circuit\": \"%s\",\n\
     \      \"strategy\": \"%s\",\n\
     \      \"qubits\": %d,\n\
     \      \"gates\": %d,\n\
     \      \"events\": %d,\n\
     \      \"wall_seconds\": %.6f,\n\
     \      \"peak_state_nodes\": %d,\n\
     \      \"final_state_nodes\": %d,\n\
     \      \"trajectory\": [%s]\n\
     \    }"
    circuit_name
    (Dd_sim.Strategy.to_string strategy)
    Circuit.(circuit.qubits)
    (Circuit.gate_count circuit)
    (Obs.Trace.length trace) seconds
    stats.Dd_sim.Sim_stats.peak_state_nodes
    (Dd_sim.Engine.state_node_count engine)
    (String.concat ","
       (List.map (fun (g, v) -> Printf.sprintf "[%d,%d]" g v) trajectory))

let trace_bench () =
  let out = "BENCH_trace.json" in
  Printf.printf "\n=== Trace trajectories (%s) ===\n" out;
  let circuits =
    [
      ("ghz_20", Standard.ghz 20);
      ("qft_14", Qft.circuit 14);
      ("grover_16", Grover.circuit ~n:16 ~marked:12345 ());
    ]
  in
  let strategies =
    [ Dd_sim.Strategy.Sequential; Dd_sim.Strategy.K_operations 4 ]
  in
  let runs =
    List.concat_map
      (fun (circuit_name, circuit) ->
        List.map
          (fun strategy ->
            Printf.printf "  %s / %s\n" circuit_name
              (Dd_sim.Strategy.to_string strategy);
            flush stdout;
            trace_run_json ~circuit_name ~strategy circuit)
          strategies)
      circuits
  in
  write_runs ~out ~schema:"ddsim-trace-bench-1" runs

(* ------------------------------------------------------------------ *)
(* Dynamic variable reordering: BENCH_reorder.json                      *)
(* ------------------------------------------------------------------ *)

(* Each circuit runs under up to three reorder treatments:
     off      - identity order (the baseline every other bench uses)
     once     - a hand-picked good order installed up front (the CLI's
                --reorder once --order SPEC path); the orders below were
                discovered by sifting the final state and then frozen,
                so the peaks are reproducible constants
     adaptive - bulge-triggered sifting mid-run
   Peak state-DD node count is the figure of merit: the order layer's
   acceptance bar is a >= 2x peak reduction of the fixed order over
   identity on a supremacy grid.  The per-run "reorder" field is part of
   the bench-check identity, so off/once/adaptive pair independently
   against the committed baseline. *)

let reorder_run_json ~circuit_name ~reorder ~order circuit =
  let one () =
    let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
    Dd_sim.Engine.set_track_peaks engine true;
    (match reorder, order with
    | `Once, Some spec ->
      ignore (Dd_sim.Engine.set_order engine (Dd.Order.of_string spec))
    | `Adaptive, _ ->
      Dd_sim.Engine.set_reorder engine ~bulge_factor:1.5 ~every:8
        Dd_sim.Engine.Reorder_adaptive
    | (`Off | `Once), _ -> ());
    let (), seconds = wall (fun () -> Dd_sim.Engine.run engine circuit) in
    (engine, seconds)
  in
  let _, t1 = one () in
  let _, t2 = one () in
  let engine, t3 = one () in
  let seconds = min t1 (min t2 t3) in
  let stats = Dd_sim.Engine.stats engine in
  let reorder_name =
    match reorder with `Off -> "off" | `Once -> "once" | `Adaptive -> "adaptive"
  in
  Printf.sprintf
    "    {\n\
     \      \"circuit\": %S,\n\
     \      \"reorder\": %S,\n\
     \      \"order\": %S,\n\
     \      \"final_order\": %S,\n\
     \      \"wall_seconds\": %.6f,\n\
     \      \"peak_state_nodes\": %d,\n\
     \      \"final_state_nodes\": %d,\n\
     \      \"reorders_run\": %d,\n\
     \      \"reorder_swaps\": %d,\n\
     \      \"reorder_nodes_before\": %d,\n\
     \      \"reorder_nodes_after\": %d\n\
     \    }"
    circuit_name reorder_name
    (match order with Some spec -> spec | None -> "identity")
    (Dd.Order.to_string (Dd.Context.order (Dd_sim.Engine.context engine)))
    seconds stats.Dd_sim.Sim_stats.peak_state_nodes
    (Dd_sim.Engine.state_node_count engine)
    stats.Dd_sim.Sim_stats.reorders_run stats.Dd_sim.Sim_stats.reorder_swaps
    stats.Dd_sim.Sim_stats.reorder_nodes_before
    stats.Dd_sim.Sim_stats.reorder_nodes_after

let reorder_bench ~smoke () =
  let out =
    if smoke then "BENCH_reorder_smoke.json" else "BENCH_reorder.json"
  in
  Printf.printf "\n=== Dynamic variable reordering (%s) ===\n" out;
  (* (circuit, hand-picked order or None) — None skips the "once" row *)
  let circuits =
    if smoke then
      [
        ( "supremacy_3x3_4",
          Supremacy.circuit ~rows:3 ~cols:3 ~cycles:4 (),
          (* column-major: the staggered CZ layers bond along columns
             first, so hosting each column contiguously cuts the peak *)
          Some "0 3 6 1 4 7 2 5 8" );
        ("qft_8", Qft.circuit 8, None);
      ]
    else
      [
        ("qft_14", Qft.circuit 14, None);
        ( "supremacy_4x4_4",
          Supremacy.circuit ~rows:4 ~cols:4 ~cycles:4 (),
          Some "0 4 8 12 1 5 9 13 2 6 10 14 3 7 11 15" );
        ( "supremacy_4x4_6",
          Supremacy.circuit ~rows:4 ~cols:4 ~cycles:6 (),
          (* sift-discovered on the final state, then frozen: 16x below
             the identity-order peak, the fixed-order acceptance bar *)
          Some "0 1 5 4 8 9 12 13 11 10 15 14 7 2 3 6" );
      ]
  in
  let runs =
    List.concat_map
      (fun (circuit_name, circuit, picked) ->
        let modes =
          [ (`Off, None); (`Adaptive, None) ]
          @ match picked with Some spec -> [ (`Once, Some spec) ] | None -> []
        in
        List.map
          (fun (reorder, order) ->
            Printf.printf "  %s / %s\n" circuit_name
              (match reorder with
              | `Off -> "off"
              | `Once -> "once"
              | `Adaptive -> "adaptive");
            flush stdout;
            reorder_run_json ~circuit_name ~reorder ~order circuit)
          modes)
      circuits
  in
  write_runs ~out ~schema:"ddsim-reorder-bench-1" runs

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let paper = List.mem "--paper" args in
  let selected = List.filter (fun a -> a <> "--paper") args in
  let all = selected = [] in
  let want name = all || List.mem name selected in
  Printf.printf
    "ddsim benchmark harness — reproducing Zulehner & Wille, DATE 2019\n";
  if paper then
    Printf.printf
      "running PAPER-SCALE instances; this mirrors the paper's 2-CPU-hour \
       regime\n";
  let report name f =
    let (), seconds = wall f in
    Printf.printf "[%s completed in %.1f s]\n" name seconds;
    flush stdout
  in
  let timed name f = if want name then report name f in
  (* the -smoke variants are CI-only and never part of the default sweep *)
  let smoke_or_full name bench =
    if List.mem (name ^ "-smoke") selected then
      report (name ^ "-smoke") (bench ~smoke:true)
    else timed name (bench ~smoke:false)
  in
  timed "fig5" (fun () -> fig5 ~paper ());
  timed "fig8" (fun () -> fig8 ~paper ());
  timed "fig9" (fun () -> fig9 ~paper ());
  timed "table1" (fun () -> table1 ~paper ());
  timed "table2" (fun () -> table2 ~paper ());
  timed "ablation" (fun () -> ablation ());
  timed "backends" (fun () -> backends ());
  timed "guard" (fun () -> guard_overhead ());
  smoke_or_full "kernel" kernel;
  smoke_or_full "apply" apply_bench;
  smoke_or_full "reorder" reorder_bench;
  timed "trace" (fun () -> trace_bench ());
  timed "bechamel" (fun () -> bechamel_suite ());
  Printf.printf "\ndone.\n"
