(* The benchmark's workloads: which circuit, under which strategy, and how
   a finished run is checked.  The seed draws the supremacy start state and
   the Grover marked item; the shape and size of the gate sequence never
   depend on it.  Why each workload exists is in BENCHMARK.json and
   README.md. *)

open Dd_sim

type family =
  | Supremacy of { rows : int; cols : int; cycles : int }
  | Grover of { n : int }

type t = {
  name : string;
  family : family;
  strategy : Strategy.t;
  guard : Guard.t;
}

let all =
  [
    {
      name = "sup_seq";
      family = Supremacy { rows = 4; cols = 4; cycles = 8 };
      strategy = Strategy.Sequential;
      guard = Guard.none;
    };
    {
      name = "sup_maxsize";
      family = Supremacy { rows = 4; cols = 4; cycles = 10 };
      strategy = Strategy.Max_size 1024;
      guard = Guard.none;
    };
    {
      name = "grover_window";
      family = Grover { n = 18 };
      strategy = Strategy.K_operations 4;
      guard = Guard.none;
    };
    {
      name = "grover_seq_gc";
      family = Grover { n = 18 };
      strategy = Strategy.Sequential;
      guard = Guard.make ~gc_high_water:65536 ();
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The marked item is drawn odd so the oracle is always a single gate (an
   even item adds two X gates per iteration, 2.7 % more gates on
   grover_18): run time then depends on the seed only through noise. *)
let marked ~n ~seed =
  let rng = Random.State.make [| seed |] in
  (2 * Random.State.int rng (1 lsl (n - 1))) + 1

(* The smoke test runs every workload shrunk to milliseconds. *)
let family w ~smoke =
  match w.family with
  | _ when not smoke -> w.family
  | Supremacy _ -> Supremacy { rows = 3; cols = 3; cycles = 4 }
  | Grover _ -> Grover { n = 8 }

(* A run's input: the circuit and the basis state it starts from. *)
type input = { circuit : Circuit.t; start : int }

(* Supremacy runs one fixed instance from a seeded basis state |x>.
   Redrawing the instance's gates per seed moved sup_seq by 25-30 % (the
   number of distinct complex weights differs between instances), and
   preparing |x> with X gates in the circuit shifted every size:1024
   window (40 %); a start state changes every amplitude and neither. *)
let input w ~smoke ~seed =
  match family w ~smoke with
  | Supremacy { rows; cols; cycles } ->
    let rng = Random.State.make [| seed |] in
    {
      circuit = Supremacy.circuit ~seed:2019 ~rows ~cols ~cycles ();
      start = Random.State.int rng (1 lsl (rows * cols));
    }
  | Grover { n } ->
    { circuit = Grover.circuit ~n ~marked:(marked ~n ~seed) (); start = 0 }

let engine { circuit; start } =
  let n = circuit.qubits in
  let e = Engine.create n in
  Engine.set_domains e 1;
  Engine.set_fused_apply e true;
  if start <> 0 then
    Engine.set_state e (Dd.Vdd.basis (Engine.context e) ~n start);
  e

let simulate w e input =
  Engine.run ~strategy:w.strategy ~guard:w.guard e input.circuit

(* What a correct final state must satisfy, computed once per workload
   process and never by the simulator under test. *)
type reference =
  | Amplitudes of Dd_complex.Cnum.t array
  | Marked of { marked : int; probability : float }

let reference w ~smoke ~seed { circuit; start } =
  match family w ~smoke with
  | Supremacy _ ->
    let open Dd_complex in
    let amps = Array.make (1 lsl circuit.qubits) Cnum.zero in
    amps.(start) <- Cnum.one;
    let dense = Dense_state.of_amplitudes amps in
    Dense_state.run dense circuit;
    Amplitudes (Dense_state.to_array dense)
  | Grover { n } ->
    let theta = asin (1. /. sqrt (Float.of_int (1 lsl n))) in
    let k = Float.of_int (Grover.iterations n) in
    let s = sin (((2. *. k) +. 1.) *. theta) in
    Marked { marked = marked ~n ~seed; probability = s *. s }

let tolerance = 1e-9

let check reference e =
  match reference with
  | Amplitudes amps ->
    let f = Engine.fidelity_dense e amps in
    if f >= 1. -. tolerance then Ok ()
    else Error (Printf.sprintf "fidelity %.12f against the dense reference" f)
  | Marked { marked; probability } ->
    let p = Grover.success_probability e ~marked in
    if Float.abs (p -. probability) <= tolerance then Ok ()
    else
      Error (Printf.sprintf "P(marked) = %.12f, expected %.12f" p probability)
