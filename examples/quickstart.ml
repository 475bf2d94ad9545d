(* Quickstart: build a small circuit, simulate it on the DD engine, inspect
   amplitudes, sample measurements, and peek at the decision diagram.

   Run with: dune exec examples/quickstart.exe *)

open Dd_complex

let () =
  (* A 3-qubit GHZ circuit: H on qubit 0, then a CX chain. *)
  let circuit =
    Circuit.of_gates ~name:"ghz3" ~qubits:3
      [ Gate.h 0; Gate.cx 0 1; Gate.cx 1 2 ]
  in
  Format.printf "circuit: %a@." Circuit.pp circuit;

  (* Simulate it. *)
  let engine = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.run engine circuit;

  (* Read amplitudes: GHZ = (|000> + |111>)/sqrt 2. *)
  Format.printf "amplitudes:@.";
  Array.iteri
    (fun i p ->
      if p > 1e-12 then
        Format.printf "  |%d%d%d>  amplitude %a  probability %.3f@."
          ((i lsr 2) land 1) ((i lsr 1) land 1) (i land 1)
          Cnum.pp
          (Dd_sim.Engine.amplitude engine i)
          p)
    (Dd_sim.Engine.probabilities engine);

  (* The state's decision diagram is tiny: 3 nodes for 8 amplitudes. *)
  Format.printf "state DD size: %d nodes (vs %d dense amplitudes)@."
    (Dd_sim.Engine.state_node_count engine)
    (1 lsl 3);

  (* Sample some measurements (no collapse). *)
  let counts = Hashtbl.create 4 in
  for _ = 1 to 1000 do
    let outcome = Dd_sim.Engine.sample engine in
    Hashtbl.replace counts outcome
      (1 + try Hashtbl.find counts outcome with Not_found -> 0)
  done;
  Format.printf "1000 samples:@.";
  Hashtbl.iter
    (fun k v ->
      Format.printf "  |%d%d%d>: %d@." ((k lsr 2) land 1) ((k lsr 1) land 1)
        (k land 1) v)
    counts;

  (* Export the state DD as Graphviz DOT. *)
  let dot =
    Dd.Dot.vector_to_dot (Dd_sim.Engine.context engine)
      (Dd_sim.Engine.state engine)
  in
  Format.printf "DOT export (%d characters); first line: %s@."
    (String.length dot)
    (List.hd (String.split_on_char '\n' dot));

  (* Strategies: the same circuit under k-operations combination. *)
  let engine2 = Dd_sim.Engine.create 3 in
  Dd_sim.Engine.run ~strategy:(Dd_sim.Strategy.K_operations 3) engine2 circuit;
  let stats = Dd_sim.Engine.stats engine2 in
  Format.printf "with k=3: %a@." Dd_sim.Sim_stats.pp stats
