(* Property-based tests (QCheck) on the invariants the paper's approach
   rests on: DD canonicity, associativity of the multiplication chain
   (Eq. 1 = Eq. 2), unitarity, and the arithmetic substrate. *)

open Dd_complex

let amplitude_gen =
  QCheck.Gen.(
    map2 (fun re im -> Cnum.make re im) (float_range (-1.) 1.)
      (float_range (-1.) 1.))

let vector_gen n =
  QCheck.Gen.(array_size (return (1 lsl n)) amplitude_gen)

let vector_arb n =
  QCheck.make ~print:(fun v ->
      String.concat "; " (Array.to_list (Array.map Cnum.to_string v)))
    (vector_gen n)

let circuit_arb ~qubits ~gates =
  QCheck.make ~print:(fun seed -> Printf.sprintf "random_circuit seed %d" seed)
    QCheck.Gen.(0 -- 10000)
  |> QCheck.map_keep_input (fun seed ->
         Standard.random_circuit ~seed ~qubits ~gates ())

let close a b = Cnum.approx_equal ~tol:1e-8 a b

let arrays_close xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2 (fun a b -> close a b) xs ys

let prop_roundtrip =
  QCheck.Test.make ~name:"of_array/to_array is the identity" ~count:100
    (vector_arb 4) (fun v ->
      let ctx = Dd.Context.create () in
      arrays_close v (Dd.Vdd.to_array ctx (Dd.Vdd.of_array ctx v) ~n:4))

let prop_canonicity =
  QCheck.Test.make ~name:"equal vectors build the identical edge" ~count:100
    (vector_arb 3) (fun v ->
      let ctx = Dd.Context.create () in
      let e1 = Dd.Vdd.of_array ctx v in
      (* build the same vector from scaled halves *)
      let scaled = Array.map (fun x -> Cnum.scale 4. x) v in
      let e2 =
        Dd.Vdd.scale ctx (Cnum.of_float 0.25) (Dd.Vdd.of_array ctx scaled)
      in
      Dd.Vdd.equal e1 e2)

let prop_add_commutes =
  QCheck.Test.make ~name:"DD addition is commutative (canonically)"
    ~count:100
    (QCheck.pair (vector_arb 3) (vector_arb 3))
    (fun (va, vb) ->
      let ctx = Dd.Context.create () in
      let a = Dd.Vdd.of_array ctx va and b = Dd.Vdd.of_array ctx vb in
      Dd.Vdd.equal (Dd.Vdd.add ctx a b) (Dd.Vdd.add ctx b a))

let prop_add_associates =
  QCheck.Test.make ~name:"DD addition is associative (numerically)"
    ~count:60
    (QCheck.triple (vector_arb 3) (vector_arb 3) (vector_arb 3))
    (fun (va, vb, vc) ->
      let ctx = Dd.Context.create () in
      let a = Dd.Vdd.of_array ctx va
      and b = Dd.Vdd.of_array ctx vb
      and c = Dd.Vdd.of_array ctx vc in
      let left = Dd.Vdd.add ctx (Dd.Vdd.add ctx a b) c in
      let right = Dd.Vdd.add ctx a (Dd.Vdd.add ctx b c) in
      arrays_close
        (Dd.Vdd.to_array ctx left ~n:3)
        (Dd.Vdd.to_array ctx right ~n:3))

let prop_eq1_equals_eq2 =
  (* the paper's pivotal identity: (M2 x M1) x v  =  M2 x (M1 x v).
     Compared numerically: canonical structural equality can be broken by
     floating-point pivot ties (the accuracy/compactness trade-off of the
     paper's reference [21]). *)
  QCheck.Test.make ~name:"matrix chain re-parenthesisation (Eq.1 = Eq.2)"
    ~count:60
    (circuit_arb ~qubits:4 ~gates:12)
    (fun (_, circuit) ->
      let ctx = Dd.Context.create () in
      let engine_seq = Dd_sim.Engine.create ~context:ctx 4 in
      Dd_sim.Engine.run engine_seq circuit;
      let engine_comb = Dd_sim.Engine.create ~context:ctx 4 in
      let product =
        Dd_sim.Engine.combine engine_comb (Circuit.flatten circuit)
      in
      Dd_sim.Engine.apply_matrix engine_comb product;
      arrays_close
        (Util.state_array engine_seq ~n:4)
        (Util.state_array engine_comb ~n:4))

let prop_strategies_preserve_norm =
  QCheck.Test.make ~name:"every strategy preserves the norm" ~count:40
    (circuit_arb ~qubits:4 ~gates:20)
    (fun (seed, circuit) ->
      let strategy =
        match seed mod 3 with
        | 0 -> Dd_sim.Strategy.Sequential
        | 1 -> Dd_sim.Strategy.K_operations (1 + (seed mod 7))
        | _ -> Dd_sim.Strategy.Max_size (1 + (seed mod 100))
      in
      let engine = Dd_sim.Engine.create 4 in
      Dd_sim.Engine.run ~strategy engine circuit;
      let norm =
        Dd.Measure.norm2
          (Dd_sim.Engine.context engine)
          (Dd_sim.Engine.state engine)
      in
      abs_float (norm -. 1.) < 1e-8)

let prop_gate_dd_unitary =
  QCheck.Test.make ~name:"random gate DDs are unitary (U+ U == I)" ~count:80
    (QCheck.make QCheck.Gen.(0 -- 100000) ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let circuit = Standard.random_circuit ~seed ~qubits:4 ~gates:1 () in
      ignore rng;
      let engine = Dd_sim.Engine.create 4 in
      let ctx = Dd_sim.Engine.context engine in
      match Circuit.flatten circuit with
      | [ gate ] ->
        let u = Dd_sim.Engine.gate_dd engine gate in
        Dd.Mdd.equal (Dd.Mdd.identity ctx 4)
          (Dd.Mdd.mul ctx (Dd.Mdd.adjoint ctx u) u)
      | [] | _ :: _ -> false)

let prop_permutation_unitary =
  QCheck.Test.make ~name:"permutation DDs are unitary" ~count:50
    (QCheck.make QCheck.Gen.(0 -- 100000) ~print:string_of_int)
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 4 in
      let size = 1 lsl n in
      let perm = Array.init size (fun i -> i) in
      for i = size - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let tmp = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- tmp
      done;
      let ctx = Dd.Context.create () in
      let u = Dd.Mdd.of_permutation ctx ~n (fun x -> perm.(x)) in
      Dd.Mdd.equal (Dd.Mdd.identity ctx n)
        (Dd.Mdd.mul ctx (Dd.Mdd.adjoint ctx u) u))

let prop_measure_distribution_sums =
  QCheck.Test.make ~name:"outcome probabilities sum to the squared norm"
    ~count:60 (vector_arb 4) (fun v ->
      let ctx = Dd.Context.create () in
      let e = Dd.Vdd.of_array ctx v in
      let total = Array.fold_left (fun acc x -> acc +. Cnum.mag2 x) 0. v in
      abs_float (Dd.Measure.norm2 ctx e -. total) < 1e-8)

let prop_convergents_reconstruct =
  QCheck.Test.make ~name:"last continued-fraction convergent is the fraction"
    ~count:200
    (QCheck.pair QCheck.(1 -- 5000) QCheck.(1 -- 5000))
    (fun (num, den) ->
      match List.rev (Ntheory.convergents num den) with
      | (p, q) :: _ ->
        let g = Ntheory.gcd num den in
        p = num / g && q = den / g
      | [] -> false)

let prop_mod_pow_agrees =
  QCheck.Test.make ~name:"mod_pow matches naive exponentiation" ~count:200
    (QCheck.triple QCheck.(2 -- 50) QCheck.(0 -- 40) QCheck.(2 -- 97))
    (fun (base, exponent, modulus) ->
      let naive = ref (1 mod modulus) in
      for _ = 1 to exponent do
        naive := !naive * base mod modulus
      done;
      Ntheory.mod_pow base exponent modulus = !naive)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_roundtrip;
      prop_canonicity;
      prop_add_commutes;
      prop_add_associates;
      prop_eq1_equals_eq2;
      prop_strategies_preserve_norm;
      prop_gate_dd_unitary;
      prop_permutation_unitary;
      prop_measure_distribution_sums;
      prop_convergents_reconstruct;
      prop_mod_pow_agrees;
    ]

(* properties of the tooling layer, appended; suite re-exported *)

(* [Optimize.drop_identities] is documented to be free to change the
   global phase (it removes e^{i.phi}*I gates), so the optimizer is only
   required to preserve semantics up to one: align both states on the
   first non-negligible reference amplitude before comparing. *)
let arrays_close_up_to_phase xs ys =
  Array.length xs = Array.length ys
  &&
  let pivot = ref (-1) in
  Array.iteri
    (fun i x -> if !pivot < 0 && not (Cnum.approx_zero ~tol:1e-8 x) then pivot := i)
    xs;
  if !pivot < 0 then arrays_close xs ys
  else
    let phase = Cnum.div ys.(!pivot) xs.(!pivot) in
    Array.for_all2 (fun a b -> close (Cnum.mul phase a) b) xs ys

let prop_optimizer_preserves_semantics =
  QCheck.Test.make ~name:"optimizer preserves circuit semantics" ~count:40
    (circuit_arb ~qubits:4 ~gates:30)
    (fun (_, circuit) ->
      let optimized = Optimize.optimize circuit in
      let dense circuit =
        let state = Dense_state.create 4 in
        Dense_state.run state circuit;
        Dense_state.to_array state
      in
      arrays_close_up_to_phase (dense circuit) (dense optimized))

let prop_optimizer_never_grows =
  QCheck.Test.make ~name:"optimizer never increases the gate count"
    ~count:40
    (circuit_arb ~qubits:4 ~gates:30)
    (fun (_, circuit) ->
      Circuit.gate_count (Optimize.optimize circuit)
      <= Circuit.gate_count circuit)

let prop_repeat_detection_identity =
  QCheck.Test.make ~name:"repeat detection preserves the gate stream"
    ~count:40
    (circuit_arb ~qubits:3 ~gates:40)
    (fun (_, circuit) ->
      Circuit.flatten (Repeats.detect circuit) = Circuit.flatten circuit)

let prop_serialize_roundtrip =
  QCheck.Test.make ~name:"serialisation round-trips vectors" ~count:40
    (vector_arb 4) (fun v ->
      let ctx = Dd.Context.create () in
      let e = Dd.Vdd.of_array ctx v in
      let reloaded =
        Dd.Serialize.vector_of_string ctx (Dd.Serialize.vector_to_string ctx e)
      in
      arrays_close
        (Dd.Vdd.to_array ctx e ~n:4)
        (Dd.Vdd.to_array ctx reloaded ~n:4))

let prop_qasm_roundtrip =
  QCheck.Test.make ~name:"QASM export/import round-trips random circuits"
    ~count:30
    (circuit_arb ~qubits:4 ~gates:25)
    (fun (_, circuit) ->
      let reloaded = Qasm.of_string (Qasm.to_string circuit) in
      let dense circuit =
        let state = Dense_state.create 4 in
        Dense_state.run state circuit;
        Dense_state.to_array state
      in
      arrays_close (dense circuit) (dense reloaded))

let prop_equivalence_accepts_identity_padding =
  QCheck.Test.make ~name:"equivalence accepts inverse-pair padding"
    ~count:30
    (circuit_arb ~qubits:3 ~gates:20)
    (fun (seed, circuit) ->
      let rng = Random.State.make [| seed |] in
      let q = Random.State.int rng 3 in
      let padded =
        Circuit.of_gates ~qubits:3
          (Circuit.flatten circuit @ [ Gate.h q; Gate.h q ])
      in
      Dd_sim.Equivalence.equivalent circuit padded)

let prop_gc_preserves_state =
  QCheck.Test.make ~name:"garbage collection never changes the state"
    ~count:30
    (circuit_arb ~qubits:4 ~gates:30)
    (fun (_, circuit) ->
      let engine = Dd_sim.Engine.create 4 in
      Dd_sim.Engine.run engine circuit;
      let before = Util.state_array engine ~n:4 in
      ignore (Dd_sim.Engine.collect_garbage engine);
      let after = Util.state_array engine ~n:4 in
      arrays_close before after)

let suite =
  suite
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_optimizer_preserves_semantics;
        prop_optimizer_never_grows;
        prop_repeat_detection_identity;
        prop_serialize_roundtrip;
        prop_qasm_roundtrip;
        prop_equivalence_accepts_identity_padding;
        prop_gc_preserves_state;
      ]
