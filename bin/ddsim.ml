(* ddsim — command-line front end for the DD-based quantum-circuit
   simulator.

     ddsim run --algo grover --qubits 10 --strategy size:256
     ddsim run --algo shor --modulus 21 --construct
     ddsim simulate circuit.qasm --strategy k:16 --samples 10
     ddsim export --algo ghz --qubits 4
     ddsim dot --algo ghz --qubits 3 -o state.dot *)

open Cmdliner

let strategy_conv =
  let parse text =
    match Dd_sim.Strategy.of_string text with
    | Ok strategy -> Ok strategy
    | Error message -> Error (`Msg message)
  in
  Arg.conv (parse, Dd_sim.Strategy.pp)

let strategy_arg =
  let doc =
    "Combination strategy: $(b,seq), $(b,k:N) (combine N gates) or \
     $(b,size:N) (combine until the product DD exceeds N nodes)."
  in
  Arg.(
    value
    & opt strategy_conv Dd_sim.Strategy.Sequential
    & info [ "s"; "strategy" ] ~docv:"STRATEGY" ~doc)

let repeating_arg =
  let doc = "Apply the DD-repeating treatment to repeated blocks." in
  Arg.(value & flag & info [ "repeating" ] ~doc)

let seed_arg =
  Arg.(
    value & opt int 0xDD
    & info [ "seed" ] ~docv:"SEED" ~doc:"Measurement RNG seed.")

let samples_arg =
  Arg.(
    value & opt int 0
    & info [ "samples" ] ~docv:"N" ~doc:"Print N measurement samples.")

let stats_arg =
  let doc =
    "Print simulation statistics.  Turns on peak tracking \
     (peak-state-nodes, peak-matrix-nodes), which walks the state after \
     every update."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* tracing and metrics, shared by run / simulate *)

let trace_arg =
  let doc =
    "Record a per-operation event timeline (gate applications, \
     matrix-vector and matrix-matrix multiplications, GC pauses, \
     fallbacks, checkpoints) and write it to $(docv); see --trace-format."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let trace_format_arg =
  let doc =
    "Trace file format: $(b,jsonl) (stable line-oriented schema, consumed \
     by $(b,ddsim report)) or $(b,chrome) (Chrome trace-event JSON, \
     loadable in Perfetto / chrome://tracing)."
  in
  Arg.(
    value
    & opt (Arg.enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
    & info [ "trace-format" ] ~docv:"FORMAT" ~doc)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the unified metrics snapshot after the run.")

let attach_trace engine = function
  | None -> None
  | Some path ->
    let trace = Obs.Trace.create () in
    Dd_sim.Engine.set_trace engine trace;
    Some (path, trace)

let export_trace ~format ~meta = function
  | None -> ()
  | Some (path, trace) ->
    let contents =
      match format with
      | `Jsonl -> Obs.Trace_export.jsonl ~meta trace
      | `Chrome -> Obs.Trace_export.chrome ~meta trace
    in
    Obs.Safe_io.write_file path contents;
    Printf.printf "wrote trace %s (%d events, %d dropped)\n" path
      (Obs.Trace.length trace) (Obs.Trace.dropped trace)

let print_metrics engine =
  Format.printf "metrics:@.%a@?" Dd_sim.Telemetry.pp
    (Dd_sim.Telemetry.snapshot engine)

let stats_json_arg =
  let doc =
    "Write the unified metrics snapshot (counters and gauges) to $(docv) \
     as one JSON object after the run.  Turns on peak tracking \
     (sim.peak_state_nodes, sim.peak_matrix_nodes), which walks the state \
     after every update."
  in
  Arg.(
    value & opt (some string) None
    & info [ "stats-json" ] ~docv:"FILE" ~doc)

let write_stats_json engine = function
  | None -> ()
  | Some path ->
    Obs.Safe_io.write_file path
      (Dd_sim.Telemetry.to_json (Dd_sim.Telemetry.snapshot engine) ^ "\n");
    Printf.printf "wrote metrics %s\n" path

(* structural DD profiling, shared by run / simulate *)

let profile_arg =
  let doc =
    "Snapshot the state DD's structure (per-level node/edge counts, \
     weight-magnitude histograms, sharing, identity fraction) during the \
     run and write a JSONL profile sidecar to $(docv); see \
     --profile-every and $(b,ddsim diff)."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let profile_every_arg =
  let doc =
    "Snapshot cadence for --profile: profile the state every $(docv) \
     applied gates (plus once at the end of the run)."
  in
  Arg.(value & opt int 1 & info [ "profile-every" ] ~docv:"K" ~doc)

let attach_profile engine ~every = function
  | None -> None
  | Some path ->
    let sink = Obs.Dd_profile.create ~every () in
    Dd_sim.Engine.set_profile engine sink;
    Some (path, sink)

let export_profile ~meta = function
  | None -> ()
  | Some (path, sink) ->
    Obs.Safe_io.write_file path (Obs.Dd_profile.jsonl ~meta sink);
    Printf.printf "wrote profile %s (%d snapshots, %d dropped)\n" path
      (Obs.Dd_profile.length sink)
      (Obs.Dd_profile.dropped sink)

(* strategy cost ledger, shared by run / simulate *)

let ledger_arg =
  let doc =
    "Record a per-window strategy cost ledger — mat-vec vs mat-mat \
     attribution with build/apply seconds, compute-table traffic, node \
     bulges and memory gauges — and write it to $(docv) as JSONL; read \
     it back with $(b,ddsim explain) and compare runs with \
     $(b,ddsim diff)."
  in
  Arg.(value & opt (some string) None & info [ "ledger" ] ~docv:"FILE" ~doc)

let attach_ledger engine = function
  | None -> None
  | Some path ->
    let sink = Obs.Ledger.create () in
    Dd_sim.Engine.set_ledger engine sink;
    Some (path, sink)

let export_ledger engine ~meta = function
  | None -> ()
  | Some (path, sink) ->
    (* the wall clock rides along so [ddsim explain] can report how much
       of the run the attributed spans actually cover *)
    let meta =
      meta
      @ [
          ( "wall_seconds",
            Printf.sprintf "%.6f"
              (Dd_sim.Engine.stats engine).Dd_sim.Sim_stats.wall_time_seconds
          );
        ]
    in
    Obs.Safe_io.write_file path (Obs.Ledger.jsonl ~meta sink);
    Printf.printf "wrote ledger %s (%d entries, %d dropped)\n" path
      (Obs.Ledger.length sink) (Obs.Ledger.dropped sink)

(* resource budgets and checkpointing, shared by run / simulate *)

let max_nodes_arg =
  let doc =
    "Live-node budget: abort with a structured error when the DD package \
     holds more than $(docv) live nodes (one automatic garbage collection \
     is attempted first)."
  in
  Arg.(
    value & opt (some int) None
    & info [ "max-nodes" ] ~docv:"N" ~doc)

let max_matrix_arg =
  let doc =
    "Combined-matrix budget: when a combination window's partial product \
     exceeds $(docv) nodes, flush it and apply the rest of the window \
     sequentially instead of aborting (counted as fallbacks in --stats)."
  in
  Arg.(
    value & opt (some int) None
    & info [ "max-matrix" ] ~docv:"N" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget in seconds; exceeding it aborts with a structured \
     error (after writing a checkpoint when --checkpoint is given)."
  in
  Arg.(
    value & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let auto_gc_arg =
  let doc =
    "Collect garbage automatically whenever the package's live node count \
     exceeds $(docv)."
  in
  Arg.(
    value & opt (some int) None
    & info [ "auto-gc" ] ~docv:"N" ~doc)

let norm_tol_arg =
  let doc =
    "Renormalise the state whenever its norm drifts more than $(docv) \
     from 1; a norm that degenerates to zero aborts with a structured \
     error."
  in
  Arg.(
    value & opt (some float) None
    & info [ "norm-tol" ] ~docv:"TOL" ~doc)

let checkpoint_arg =
  let doc =
    "Write resumable checkpoints to $(docv): periodically (see \
     --checkpoint-every), at the end of the run, and immediately before \
     any budget abort.  Resume with --resume."
  in
  Arg.(
    value & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc = "Checkpoint every $(docv) applied gates (with --checkpoint)." in
  Arg.(
    value & opt int 1024
    & info [ "checkpoint-every" ] ~docv:"GATES" ~doc)

let resume_arg =
  let doc =
    "Resume from a checkpoint $(docv) written by --checkpoint: restores \
     the state vector, RNG and statistics, then skips the gates already \
     applied."
  in
  Arg.(
    value & opt (some string) None
    & info [ "resume" ] ~docv:"FILE" ~doc)

let guard_of_options max_nodes max_matrix deadline norm_tol auto_gc =
  Dd_sim.Guard.make ?max_live_nodes:max_nodes ?max_matrix_nodes:max_matrix
    ?deadline ?norm_tolerance:norm_tol ?gc_high_water:auto_gc ()

(* invariant auditing, shared by run / simulate *)

let audit_every_arg =
  let doc =
    "Run the DD invariant auditor every $(docv) applied gates: canonicity \
     of every reachable state-DD node, unique-/compute-table consistency, \
     and norm conservation (see --audit-tol), with automatic recovery \
     (cache flush, canonical rebuild, renormalisation).  Unrecoverable \
     violations abort with a structured error naming each fault.  0 \
     disables auditing (the default)."
  in
  Arg.(value & opt int 0 & info [ "audit-every" ] ~docv:"K" ~doc)

let audit_tol_arg =
  let doc =
    "Auditor norm tolerance: flag the recomputed state norm when it \
     drifts more than $(docv) from 1 (with --audit-every)."
  in
  Arg.(value & opt float 1e-6 & info [ "audit-tol" ] ~docv:"TOL" ~doc)

let arm_audit engine ~tolerance = function
  | 0 -> ()
  | every -> Dd_sim.Engine.set_audit engine ~tolerance every

(* dynamic variable reordering, shared by run / simulate / inspect *)

let reorder_arg =
  let doc =
    "Dynamic variable reordering policy: $(b,off) (never reorder, the \
     default), $(b,once) (sift at the first level bulge — or just apply \
     --order when one is given), or $(b,adaptive) (probe for level \
     bulges every --reorder-every gates and sift whenever one appears).  \
     Circuits are untouched: gates keep addressing qubits by index and \
     are retargeted through the live order."
  in
  Arg.(
    value
    & opt
        (Arg.enum [ ("off", `Off); ("once", `Once); ("adaptive", `Adaptive) ])
        `Off
    & info [ "reorder" ] ~docv:"POLICY" ~doc)

let order_arg =
  let doc =
    "Initial variable order: $(b,identity), or the qubit hosted at each \
     level from the terminal up, space- or comma-separated (e.g. \
     $(b,'2,0,1,3') puts qubit 2 at level 0).  Applied to the state \
     before the run by adjacent-level swaps."
  in
  Arg.(value & opt (some string) None & info [ "order" ] ~docv:"SPEC" ~doc)

let bulge_factor_arg =
  let doc =
    "Bulge threshold for --reorder: a level counts as bulging when it \
     holds more than $(docv) times the median per-level node count."
  in
  Arg.(value & opt float 4.0 & info [ "bulge-factor" ] ~docv:"F" ~doc)

let reorder_every_arg =
  let doc =
    "Minimum applied-gate gap between bulge probes (with --reorder; each \
     probe walks the state DD)."
  in
  Arg.(value & opt int 64 & info [ "reorder-every" ] ~docv:"K" ~doc)

let arm_reorder engine ~policy ~order ~bulge_factor ~every =
  (match policy with
  | `Off -> ()
  | `Once ->
    Dd_sim.Engine.set_reorder engine ~bulge_factor ~every
      Dd_sim.Engine.Reorder_once
  | `Adaptive ->
    Dd_sim.Engine.set_reorder engine ~bulge_factor ~every
      Dd_sim.Engine.Reorder_adaptive);
  match order with
  | None -> ()
  | Some spec ->
    ignore (Dd_sim.Engine.set_order engine (Dd.Order.of_string spec))

let reorder_to_string = function
  | `Off -> "off"
  | `Once -> "once"
  | `Adaptive -> "adaptive"

(* budget aborts and bad checkpoints are expected outcomes, not crashes:
   report them on stderr with a distinct exit code *)
let with_structured_errors f =
  try f () with
  | Dd_sim.Error.Error e ->
    Printf.eprintf "ddsim: %s\n" (Dd_sim.Error.to_string e);
    exit 3
  | Dd.Dd_error.Error e ->
    Printf.eprintf "ddsim: %s\n" (Dd.Dd_error.to_string e);
    exit 2
  | Qasm.Parse_error { line; message } ->
    Printf.eprintf "ddsim: parse error at line %d: %s\n" line message;
    exit 2
  | Invalid_argument message ->
    Printf.eprintf "ddsim: %s\n" message;
    exit 2

let read_source file =
  let ic = open_in file in
  let length = in_channel_length ic in
  let text = really_input_string ic length in
  close_in ic;
  text

(* circuit selection shared by run / export / dot *)

let algo_arg =
  let doc =
    "Benchmark circuit: $(b,ghz), $(b,bell), $(b,qft), $(b,bv), \
     $(b,grover), $(b,supremacy), $(b,random) or $(b,shor)."
  in
  Arg.(value & opt string "ghz" & info [ "a"; "algo" ] ~docv:"ALGO" ~doc)

let qubits_arg =
  Arg.(
    value & opt int 4 & info [ "n"; "qubits" ] ~docv:"N" ~doc:"Qubit count.")

let marked_arg =
  Arg.(
    value & opt int 1
    & info [ "marked" ] ~docv:"M" ~doc:"Grover: the marked element.")

let modulus_arg =
  Arg.(
    value & opt int 15
    & info [ "modulus" ] ~docv:"N" ~doc:"Shor: the number to factor.")

let base_arg =
  Arg.(
    value & opt (some int) None
    & info [ "base" ] ~docv:"A" ~doc:"Shor: the co-prime base a.")

let rows_arg =
  Arg.(value & opt int 4 & info [ "rows" ] ~docv:"R" ~doc:"Supremacy rows.")

let cols_arg =
  Arg.(value & opt int 4 & info [ "cols" ] ~docv:"C" ~doc:"Supremacy cols.")

let cycles_arg =
  Arg.(
    value & opt int 8 & info [ "cycles" ] ~docv:"D" ~doc:"Supremacy depth.")

let gates_arg =
  Arg.(
    value & opt int 50
    & info [ "gates" ] ~docv:"G" ~doc:"Random circuit: gate count.")

let circuit_of_options algo qubits marked rows cols cycles gates seed =
  match algo with
  | "ghz" -> Standard.ghz qubits
  | "bell" -> Standard.bell ()
  | "qft" -> Qft.circuit qubits
  | "bv" -> Standard.bernstein_vazirani ~n:qubits ~secret:marked
  | "grover" -> Grover.circuit ~n:qubits ~marked ()
  | "supremacy" -> Supremacy.circuit ~seed ~rows ~cols ~cycles ()
  | "random" -> Standard.random_circuit ~seed ~qubits ~gates ()
  | other -> failwith (Printf.sprintf "unknown algorithm %S" other)

let print_top_amplitudes engine =
  let n = Dd_sim.Engine.qubits engine in
  if n <= 16 then begin
    let probabilities = Dd_sim.Engine.probabilities engine in
    let indexed =
      Array.mapi (fun i p -> (p, i)) probabilities |> Array.to_list
    in
    let sorted = List.sort (fun (a, _) (b, _) -> compare b a) indexed in
    let top = List.filteri (fun i _ -> i < 8) sorted in
    Printf.printf "top basis states:\n";
    List.iter
      (fun (p, i) ->
        if p > 1e-9 then
          Printf.printf "  |%*d>  p = %.6f  amplitude %s\n" 6 i p
            (Dd_complex.Cnum.to_string (Dd_sim.Engine.amplitude engine i)))
      top
  end
  else
    Printf.printf "state DD has %d nodes (too wide to dump densely)\n"
      (Dd_sim.Engine.state_node_count engine)

let finish engine samples stats seconds =
  Printf.printf "simulation took %.3f s; state DD %d nodes\n" seconds
    (Dd_sim.Engine.state_node_count engine);
  print_top_amplitudes engine;
  if samples > 0 then begin
    Printf.printf "samples:";
    for _ = 1 to samples do
      Printf.printf " %d" (Dd_sim.Engine.sample engine)
    done;
    print_newline ()
  end;
  if stats then begin
    Format.printf "stats: %a@." Dd_sim.Sim_stats.pp (Dd_sim.Engine.stats engine);
    Format.printf "kernel:@.%a@." Dd.Context.pp_stats
      (Dd_sim.Engine.context engine)
  end

(* --- the simulation session shared by run / simulate ----------------- *)

type session = {
  strategy : Dd_sim.Strategy.t;
  seed : int;
  samples : int;
  stats : bool;
  (* built inside [with_structured_errors]: a degenerate budget is an
     input error, reported after the circuit is printed *)
  guard : unit -> Dd_sim.Guard.t;
  checkpoint : string option;
  checkpoint_every : int;
  resume : string option;
  trace : string option;
  trace_format : [ `Jsonl | `Chrome ];
  metrics : bool;
  profile : string option;
  profile_every : int;
  stats_json : string option;
  ledger : string option;
  audit_every : int;
  audit_tol : float;
  reorder : [ `Off | `Once | `Adaptive ];
  order : string option;
  bulge_factor : float;
  reorder_every : int;
}

let session_term =
  let make strategy seed samples stats max_nodes max_matrix deadline
      norm_tol auto_gc checkpoint checkpoint_every resume trace trace_format
      metrics profile profile_every stats_json ledger audit_every audit_tol
      reorder order bulge_factor reorder_every =
    let guard () =
      guard_of_options max_nodes max_matrix deadline norm_tol auto_gc
    in
    { strategy; seed; samples; stats; guard; checkpoint; checkpoint_every;
      resume; trace; trace_format; metrics; profile; profile_every;
      stats_json; ledger; audit_every; audit_tol; reorder; order;
      bulge_factor; reorder_every }
  in
  Term.(
    const make $ strategy_arg $ seed_arg $ samples_arg $ stats_arg
    $ max_nodes_arg $ max_matrix_arg $ deadline_arg $ norm_tol_arg
    $ auto_gc_arg $ checkpoint_arg $ checkpoint_every_arg
    $ resume_arg $ trace_arg $ trace_format_arg $ metrics_arg $ profile_arg
    $ profile_every_arg $ stats_json_arg $ ledger_arg $ audit_every_arg
    $ audit_tol_arg $ reorder_arg $ order_arg $ bulge_factor_arg
    $ reorder_every_arg)

(* [meta] names the circuit's source; the session appends its own
   configuration before exporting the sidecars *)
let simulate_session s ~meta ~use_repeating circuit =
  Format.printf "%a@." Circuit.pp circuit;
  let engine = Dd_sim.Engine.create ~seed:s.seed Circuit.(circuit.qubits) in
  if s.stats || s.stats_json <> None then
    Dd_sim.Engine.set_track_peaks engine true;
  arm_audit engine ~tolerance:s.audit_tol s.audit_every;
  arm_reorder engine ~policy:s.reorder ~order:s.order
    ~bulge_factor:s.bulge_factor ~every:s.reorder_every;
  let traced = attach_trace engine s.trace in
  let profiled = attach_profile engine ~every:s.profile_every s.profile in
  let ledgered = attach_ledger engine s.ledger in
  let guard = s.guard () in
  let start = Obs.Clock.now () in
  let start_gate =
    match s.resume with
    | None -> 0
    | Some path ->
      let loaded, generation =
        Dd_sim.Checkpoint.load_latest (Dd_sim.Engine.context engine) ~path
      in
      let start = Dd_sim.Checkpoint.restore engine loaded in
      Printf.printf "resumed from %s at gate %d%s\n" path start
        (match generation with
        | Dd_sim.Checkpoint.Current -> ""
        | Dd_sim.Checkpoint.Previous ->
          " (latest checkpoint unreadable; previous generation)");
      start
  in
  let on_checkpoint =
    Option.map
      (fun path ~gate_index ->
        Dd_sim.Checkpoint.save engine ~strategy:s.strategy ~gate_index ~path)
      s.checkpoint
  in
  Dd_sim.Engine.run ~strategy:s.strategy ~use_repeating ~guard
    ~checkpoint_every:s.checkpoint_every ?on_checkpoint ~start_gate engine
    circuit;
  finish engine s.samples s.stats (Obs.Clock.now () -. start);
  let meta =
    meta
    @ [
        ("qubits", string_of_int Circuit.(circuit.qubits));
        ("strategy", Dd_sim.Strategy.to_string s.strategy);
        ("reorder", reorder_to_string s.reorder);
      ]
  in
  export_trace ~format:s.trace_format ~meta traced;
  export_profile ~meta profiled;
  export_ledger engine ~meta ledgered;
  write_stats_json engine s.stats_json;
  if s.metrics then print_metrics engine

(* --- run ---------------------------------------------------------- *)

let run_shor modulus base strategy construct =
  let backend =
    if construct then Shor.Direct else Shor.Beauregard strategy
  in
  Printf.printf "factoring %d (%s backend, %d qubits)\n" modulus
    (if construct then "DD-construct" else "Beauregard")
    (if construct then Shor.direct_qubits modulus
     else Shor.beauregard_qubits modulus);
  let start = Unix.gettimeofday () in
  (match Shor.factor ?a:base ~backend modulus with
  | Some (p, q) -> Printf.printf "%d = %d * %d\n" modulus p q
  | None -> Printf.printf "no factors found\n");
  Printf.printf "took %.3f s\n" (Unix.gettimeofday () -. start)

let construct_arg =
  Arg.(
    value & flag
    & info [ "construct" ]
        ~doc:"Shor: use the DD-construct backend (n+1 qubits).")

let run_cmd =
  let action algo qubits marked modulus base rows cols cycles gates repeating
      construct session =
    with_structured_errors @@ fun () ->
    if algo = "shor" then run_shor modulus base session.strategy construct
    else
      simulate_session session ~meta:[ ("algo", algo) ]
        ~use_repeating:repeating
        (circuit_of_options algo qubits marked rows cols cycles gates
           session.seed)
  in
  let term =
    Term.(
      const action $ algo_arg $ qubits_arg $ marked_arg $ modulus_arg
      $ base_arg $ rows_arg $ cols_arg $ cycles_arg $ gates_arg
      $ repeating_arg $ construct_arg $ session_term)
  in
  Cmd.v (Cmd.info "run" ~doc:"Simulate a built-in benchmark circuit.") term

(* --- simulate (qasm) ---------------------------------------------- *)

let qasm_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"FILE.qasm" ~doc:"OpenQASM 2.0 input file.")

let detect_repeats_arg =
  Arg.(
    value & flag
    & info [ "detect-repeats" ]
        ~doc:
          "Recover repeated blocks from the gate stream and apply the \
           DD-repeating treatment to them.")

let simulate_cmd =
  let action file detect session =
    with_structured_errors @@ fun () ->
    let circuit = Qasm.of_string ~name:file (read_source file) in
    let circuit = if detect then Repeats.detect circuit else circuit in
    simulate_session session ~meta:[ ("file", file) ] ~use_repeating:detect
      circuit
  in
  let term =
    Term.(const action $ qasm_file_arg $ detect_repeats_arg $ session_term)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate an OpenQASM 2.0 file.") term

(* --- export -------------------------------------------------------- *)

let export_cmd =
  let action algo qubits marked rows cols cycles gates seed =
    let circuit =
      circuit_of_options algo qubits marked rows cols cycles gates seed
    in
    print_string (Qasm.to_string circuit)
  in
  let term =
    Term.(
      const action $ algo_arg $ qubits_arg $ marked_arg $ rows_arg $ cols_arg
      $ cycles_arg $ gates_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Print a built-in benchmark as OpenQASM 2.0.")
    term

(* --- dot ------------------------------------------------------------ *)

let output_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write DOT to FILE.")

let dot_cmd =
  let action algo qubits marked rows cols cycles gates seed output =
    let circuit =
      circuit_of_options algo qubits marked rows cols cycles gates seed
    in
    let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
    Dd_sim.Engine.run engine circuit;
    let ctx = Dd_sim.Engine.context engine in
    let dot =
      Dd.Dot.vector_to_dot ~order:(Dd.Context.order ctx) ctx
        (Dd_sim.Engine.state engine)
    in
    match output with
    | None -> print_string dot
    | Some file ->
      Obs.Safe_io.write_file file dot;
      Printf.printf "wrote %s (%d state nodes)\n" file
        (Dd_sim.Engine.state_node_count engine)
  in
  let term =
    Term.(
      const action $ algo_arg $ qubits_arg $ marked_arg $ rows_arg $ cols_arg
      $ cycles_arg $ gates_arg $ seed_arg $ output_arg)
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Simulate a benchmark and export the final state DD as DOT.")
    term

(* --- optimize -------------------------------------------------------- *)

let optimize_cmd =
  let action file =
    with_structured_errors @@ fun () ->
    let circuit = Qasm.of_string ~name:file (read_source file) in
    let optimized = Optimize.optimize circuit in
    Printf.eprintf "%d gates -> %d gates (verified equivalent: %b)\n"
      (Circuit.gate_count circuit)
      (Circuit.gate_count optimized)
      (Dd_sim.Equivalence.equivalent circuit optimized);
    print_string (Qasm.to_string optimized)
  in
  let term = Term.(const action $ qasm_file_arg) in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:
         "Peephole-optimise an OpenQASM file (cancellation, fusion, \
          identity removal) and print the result; equivalence is checked \
          with the DD-based verifier.")
    term

(* --- equiv ----------------------------------------------------------- *)

let second_file_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"OTHER.qasm" ~doc:"Second OpenQASM 2.0 file.")

let equiv_cmd =
  let action file_a file_b =
    with_structured_errors @@ fun () ->
    let a = Qasm.of_string ~name:file_a (read_source file_a) in
    let b = Qasm.of_string ~name:file_b (read_source file_b) in
    match Dd_sim.Equivalence.check a b with
    | Dd_sim.Equivalence.Equivalent ->
      print_endline "equivalent";
      exit 0
    | Dd_sim.Equivalence.Equivalent_up_to_phase phase ->
      Printf.printf "equivalent up to global phase %s\n"
        (Dd_complex.Cnum.to_string phase);
      exit 0
    | Dd_sim.Equivalence.Not_equivalent ->
      print_endline "NOT equivalent";
      exit 1
  in
  let term = Term.(const action $ qasm_file_arg $ second_file_arg) in
  Cmd.v
    (Cmd.info "equiv"
       ~doc:
         "Check two OpenQASM files for equivalence by building both \
          unitaries as DDs (matrix-matrix multiplication) and comparing \
          canonically.")
    term

(* --- plot ------------------------------------------------------------ *)

let figure_arg =
  Arg.(
    value & opt string "fig8"
    & info [ "figure" ] ~docv:"FIG" ~doc:"Which figure: $(b,fig8) or $(b,fig9).")

let plot_output_arg =
  Arg.(
    value & opt (some string) None
    & info [ "o"; "output" ] ~docv:"FILE.svg" ~doc:"Write the SVG to FILE.")

let bench_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"BENCH_OUTPUT" ~doc:"Output of bench/main.exe.")

let plot_cmd =
  let action file figure output =
    let header, title, x_label =
      match figure with
      | "fig8" ->
        ("Fig. 8", "Fig. 8: k-operations speed-up over sequential", "k")
      | "fig9" ->
        ("Fig. 9", "Fig. 9: max-size speed-up over sequential", "s_max")
      | other -> failwith (Printf.sprintf "unknown figure %S" other)
    in
    let text = read_source file in
    let series = Dd_sim.Sweep_plot.parse_sweep_table ~header text in
    let svg = Dd_sim.Sweep_plot.render ~title ~x_label series in
    match output with
    | None -> print_string svg
    | Some path ->
      Obs.Safe_io.write_file path svg;
      Printf.printf "wrote %s (%d series)\n" path (List.length series)
  in
  let term =
    Term.(const action $ bench_file_arg $ figure_arg $ plot_output_arg)
  in
  Cmd.v
    (Cmd.info "plot"
       ~doc:
         "Render the Fig. 8 / Fig. 9 strategy sweeps from recorded \
          benchmark output as an SVG chart.")
    term

(* --- report ---------------------------------------------------------- *)

let trace_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"TRACE.jsonl"
        ~doc:"JSONL trace written by $(b,run --trace) / $(b,simulate --trace).")

let report_cmd =
  let action file =
    match Obs.Trace_report.parse_jsonl (read_source file) with
    | run -> print_string (Obs.Trace_report.render run)
    | exception Failure message ->
      Printf.eprintf "ddsim: %s\n" message;
      exit 2
  in
  let term = Term.(const action $ trace_file_arg) in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyse a JSONL trace: per-phase time breakdown and the \
          per-gate state-DD node-count trajectory (the Fig. 3-style \
          curve), rendered for the terminal.")
    term

(* --- explain ---------------------------------------------------------- *)

let ledger_file_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"LEDGER.jsonl"
        ~doc:
          "JSONL ledger written by $(b,run --ledger) / \
           $(b,simulate --ledger).")

let top_arg =
  Arg.(
    value & opt int 5
    & info [ "top" ] ~docv:"N"
        ~doc:"List the $(docv) most expensive windows (default 5).")

let explain_cmd =
  let action file top =
    match Obs.Ledger.parse_jsonl (read_source file) with
    | run -> print_string (Obs.Ledger.explain ~top run)
    | exception Failure message ->
      Printf.eprintf "ddsim: %s\n" message;
      exit 2
  in
  let term = Term.(const action $ ledger_file_arg $ top_arg) in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Analyse a strategy cost ledger: total mat-vec vs mat-mat time, \
          amortization per window size, the observed break-even k and \
          the most expensive windows with their node bulges — the \
          paper's matrix-vector vs matrix-matrix comparison measured on \
          an actual run.")
    term

(* --- diff ------------------------------------------------------------ *)

let diff_file_a_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"A.jsonl"
        ~doc:
          "First run: a JSONL trace (--trace), profile (--profile) or \
           ledger (--ledger); checkpoints carry no run to compare.")

let diff_file_b_arg =
  Arg.(
    required
    & pos 1 (some file) None
    & info [] ~docv:"B.jsonl" ~doc:"Second run, same file family.")

(* every sidecar family is a JSONL document whose header names its
   schema; that decides which parser applies *)
let schema_of path text =
  match Obs.Jsonl.schema_of text with
  | Some schema -> schema
  | None ->
    Printf.eprintf "ddsim: %s: not a JSONL sidecar (no schema header line)\n"
      path;
    exit 2

let diff_cmd =
  let action path_a path_b =
    let text_a = read_source path_a and text_b = read_source path_b in
    let schema_a = schema_of path_a text_a in
    let schema_b = schema_of path_b text_b in
    if schema_a <> schema_b then begin
      Printf.eprintf
        "ddsim: cannot diff %S against %S (one is a %s, the other a %s)\n"
        path_a path_b schema_a schema_b;
      exit 2
    end;
    let report =
      try
        if schema_a = Obs.Trace_export.schema then
          Obs.Run_diff.render_traces ~label_a:path_a ~label_b:path_b
            (Obs.Trace_report.parse_jsonl text_a)
            (Obs.Trace_report.parse_jsonl text_b)
        else if schema_a = Obs.Dd_profile.schema then
          Obs.Run_diff.render_profiles ~label_a:path_a ~label_b:path_b
            (Obs.Dd_profile.parse_jsonl text_a)
            (Obs.Dd_profile.parse_jsonl text_b)
        else if schema_a = Obs.Ledger.schema then
          Obs.Run_diff.render_ledgers ~label_a:path_a ~label_b:path_b
            (Obs.Ledger.parse_jsonl text_a)
            (Obs.Ledger.parse_jsonl text_b)
        else begin
          Printf.eprintf "ddsim: cannot diff schema %S files\n" schema_a;
          exit 2
        end
      with Failure message ->
        Printf.eprintf "ddsim: %s\n" message;
        exit 2
    in
    print_string report
  in
  let term = Term.(const action $ diff_file_a_arg $ diff_file_b_arg) in
  Cmd.v
    (Cmd.info "diff"
       ~doc:
         "Compare two recorded runs of the same circuit (two JSONL \
          traces, structural profiles or strategy ledgers): first \
          divergence point, node-trajectory overlay, per-phase time \
          deltas, compute-table hit-rate deltas; profiles additionally \
          get a per-level breakdown at the divergence, ledgers \
          per-strategy totals, break-even k and memory peaks.")
    term

(* --- bench-check ------------------------------------------------------ *)

let baseline_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Committed baseline BENCH_*.json to gate against.")

let bench_candidate_arg =
  Arg.(
    required
    & pos 0 (some file) None
    & info [] ~docv:"CANDIDATE.json"
        ~doc:"Freshly produced benchmark output, same schema.")

let time_ratio_arg =
  Arg.(
    value & opt float 10.
    & info [ "time-ratio" ] ~docv:"R"
        ~doc:"Allow candidate times up to R x baseline (faster always passes).")

let count_ratio_arg =
  Arg.(
    value & opt float 0.1
    & info [ "count-ratio" ] ~docv:"R"
        ~doc:"Allowed fractional drift of counter metrics (node counts, \
              multiplications, lookups).")

let rate_tol_arg =
  Arg.(
    value & opt float 0.15
    & info [ "rate-tol" ] ~docv:"T"
        ~doc:"Absolute tolerance for *_rate metrics.")

let bench_check_cmd =
  let action baseline candidate time_ratio count_ratio rate_tol =
    let tol = { Obs.Bench_check.time_ratio; count_ratio; rate_tol } in
    let findings =
      Obs.Bench_check.compare_strings ~tol
        ~baseline:(read_source baseline)
        (read_source candidate)
    in
    print_string (Obs.Bench_check.render findings);
    if Obs.Bench_check.regressed findings then exit 1
  in
  let term =
    Term.(
      const action $ baseline_arg $ bench_candidate_arg $ time_ratio_arg
      $ count_ratio_arg $ rate_tol_arg)
  in
  Cmd.v
    (Cmd.info "bench-check"
       ~doc:
         "Gate a fresh BENCH_*.json against a committed baseline: runs \
          are paired by identity, every numeric metric is classified \
          (time / rate / count) and compared under its tolerance; exits \
          non-zero on any regression.")
    term

(* --- fsck ------------------------------------------------------------- *)

let fsck_files_arg =
  Arg.(
    non_empty & pos_all string []
    & info [] ~docv:"FILE"
        ~doc:
          "Artifacts to validate, one JSONL document each: checkpoints \
           (--checkpoint), traces (--trace), structural profiles \
           (--profile) and strategy ledgers (--ledger).")

let fsck_cmd =
  let action files =
    let reports =
      List.map (fun path -> Dd_sim.Fsck.check_file ~path) files
    in
    List.iter (fun r -> print_endline (Dd_sim.Fsck.to_string r)) reports;
    if List.exists (fun r -> not r.Dd_sim.Fsck.ok) reports then exit 1
  in
  let term = Term.(const action $ fsck_files_arg) in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Validate simulation artifacts at rest: checksum trailers, \
          schemas, full parses (checkpoints are reconstructed into a \
          throwaway DD context) and cheap semantic invariants such as \
          monotonic gate indices.  Prints one verdict line per file and \
          exits non-zero when any file fails.")
    term

(* --- inspect ---------------------------------------------------------- *)

let inspect_dot_arg =
  Arg.(
    value & opt (some string) None
    & info [ "dot" ] ~docv:"FILE"
        ~doc:
          "Also write an annotated DOT rendering of the final state DD \
           (weight magnitudes with log2 buckets on every edge, rank=same \
           rows per level) to $(docv).")

let inspect_cmd =
  let action algo qubits marked rows cols cycles gates seed strategy output
      reorder order bulge_factor reorder_every =
    with_structured_errors @@ fun () ->
    let circuit =
      circuit_of_options algo qubits marked rows cols cycles gates seed
    in
    let engine = Dd_sim.Engine.create ~seed Circuit.(circuit.qubits) in
    arm_reorder engine ~policy:reorder ~order ~bulge_factor
      ~every:reorder_every;
    Dd_sim.Engine.run ~strategy engine circuit;
    (* label each level with the qubit it hosts under the live order —
       under identity the two columns coincide, which is worth seeing *)
    let ctx = Dd_sim.Engine.context engine in
    let live_order = Dd.Context.order ctx in
    Format.printf "%a@?" Dd.Profile.pp
      (Dd.Profile.vector ~order:live_order ctx (Dd_sim.Engine.state engine));
    match output with
    | None -> ()
    | Some file ->
      let dot =
        Dd.Dot.vector_to_dot ~annotate:true ~order:live_order ctx
          (Dd_sim.Engine.state engine)
      in
      Obs.Safe_io.write_file file dot;
      Printf.printf "wrote %s (annotated, %d state nodes)\n" file
        (Dd_sim.Engine.state_node_count engine)
  in
  let term =
    Term.(
      const action $ algo_arg $ qubits_arg $ marked_arg $ rows_arg $ cols_arg
      $ cycles_arg $ gates_arg $ seed_arg $ strategy_arg $ inspect_dot_arg
      $ reorder_arg $ order_arg $ bulge_factor_arg $ reorder_every_arg)
  in
  Cmd.v
    (Cmd.info "inspect"
       ~doc:
         "Simulate a benchmark and print the structural profile of the \
          final state DD (per-level nodes/edges, weight-magnitude \
          histogram, sharing, identity fraction); --dot adds an annotated \
          Graphviz rendering.")
    term

let () =
  let doc = "decision-diagram based quantum-circuit simulator" in
  let info = Cmd.info "ddsim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; simulate_cmd; export_cmd; dot_cmd; inspect_cmd;
            optimize_cmd; equiv_cmd; plot_cmd; report_cmd; explain_cmd;
            diff_cmd; bench_check_cmd; fsck_cmd ]))
