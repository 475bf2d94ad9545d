(* Circuit tooling built on the DD engine: peephole optimisation verified
   by DD-based equivalence checking, repeated-block detection feeding the
   DD-repeating strategy, and oracle serialisation.

   Run with: dune exec examples/circuit_tools.exe *)

let () =
  (* 1. optimise a deliberately wasteful circuit *)
  let wasteful =
    Circuit.of_gates ~qubits:3
      [
        Gate.h 0; Gate.h 0;                    (* cancels *)
        Gate.t_gate 1; Gate.s 1; Gate.tdg 1;   (* fuses *)
        Gate.rz 0. 2;                          (* identity *)
        Gate.cx 0 1; Gate.x 2; Gate.cx 0 1;    (* cancels across x 2 *)
        Gate.h 2;
      ]
  in
  let optimized = Optimize.optimize wasteful in
  Format.printf "optimiser: %d gates -> %d gates@."
    (Circuit.gate_count wasteful)
    (Circuit.gate_count optimized);
  (match Dd_sim.Equivalence.check wasteful optimized with
  | Dd_sim.Equivalence.Equivalent -> Format.printf "verified: equivalent@."
  | Dd_sim.Equivalence.Equivalent_up_to_phase phase ->
    Format.printf "verified: equivalent up to phase %a@." Dd_complex.Cnum.pp
      phase
  | Dd_sim.Equivalence.Not_equivalent ->
    Format.printf "BUG: optimiser changed the semantics!@.");

  (* 2. recover repeat structure from a flat gate stream *)
  let n = 10 and marked = 123 in
  let flat =
    Circuit.of_gates ~qubits:n
      (Circuit.flatten (Grover.circuit ~n ~marked ()))
  in
  let recovered = Repeats.detect flat in
  Format.printf "repeat detection on flattened grover_%d: %a@." n Circuit.pp
    recovered;
  let engine = Dd_sim.Engine.create n in
  Dd_sim.Engine.run ~use_repeating:true engine recovered;
  let stats = Dd_sim.Engine.stats engine in
  Format.printf
    "DD-repeating on the recovered structure: %d mat-vec (the flat stream \
     would need %d), success probability %.4f@."
    stats.Dd_sim.Sim_stats.mat_vec_mults (Circuit.gate_count flat)
    (Grover.success_probability engine ~marked);

  (* 3. serialise a directly-constructed oracle and reload it *)
  let ctx = Dd.Context.create () in
  let oracle =
    Dd.Mdd.of_permutation ctx ~n:6 (fun x -> if x < 55 then x * 17 mod 55 else x)
  in
  let text = Dd.Serialize.matrix_to_string ctx oracle in
  let ctx2 = Dd.Context.create () in
  let reloaded = Dd.Serialize.matrix_of_string ctx2 text in
  Format.printf
    "oracle x -> 17x mod 55 serialised to %d bytes; reloaded DD has %d \
     nodes (original %d)@."
    (String.length text)
    (Dd.Mdd.node_count reloaded)
    (Dd.Mdd.node_count oracle);

  (* 4. equivalence checking catches real differences *)
  let qft = Qft.circuit 4 in
  let broken =
    Circuit.of_gates ~qubits:4
      (Circuit.flatten qft @ [ Gate.t_gate 2 ])
  in
  Format.printf "qft vs qft-with-an-extra-t: %s@."
    (if Dd_sim.Equivalence.equivalent qft broken then "equivalent (?!)"
     else "not equivalent, as expected")
