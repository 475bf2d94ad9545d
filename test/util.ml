(* Shared helpers for the test suites. *)

open Dd_complex

let cnum_testable =
  Alcotest.testable Cnum.pp (fun a b -> Cnum.approx_equal ~tol:1e-9 a b)

let check_cnum = Alcotest.check cnum_testable
let check_float = Alcotest.(check (float 1e-9))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_cnum_array msg expected actual =
  Alcotest.(check int) (msg ^ " (length)") (Array.length expected)
    (Array.length actual);
  Array.iteri
    (fun i e -> check_cnum (Printf.sprintf "%s [%d]" msg i) e actual.(i))
    expected

(* Dense reference matrices. *)

let dense_id n =
  let dim = 1 lsl n in
  Array.init dim (fun r ->
      Array.init dim (fun c -> if r = c then Cnum.one else Cnum.zero))

let dense_matmul a b =
  let dim = Array.length a in
  Array.init dim (fun r ->
      Array.init dim (fun c ->
          let acc = ref Cnum.zero in
          for k = 0 to dim - 1 do
            acc := Cnum.add !acc (Cnum.mul a.(r).(k) b.(k).(c))
          done;
          !acc))

let dense_matvec m v =
  let dim = Array.length m in
  Array.init dim (fun r ->
      let acc = ref Cnum.zero in
      for c = 0 to dim - 1 do
        acc := Cnum.add !acc (Cnum.mul m.(r).(c) v.(c))
      done;
      !acc)

let dense_kron a b =
  let da = Array.length a and db = Array.length b in
  Array.init (da * db) (fun r ->
      Array.init (da * db) (fun c ->
          Cnum.mul a.(r / db).(c / db) b.(r mod db).(c mod db)))

(* Dense matrix of one gate on [n] qubits, built by Kronecker products and
   control masking — an independent construction path from Mdd.gate. *)
let dense_gate ~n (gate : Gate.t) =
  let dim = 1 lsl n in
  let m = Gate.matrix gate.kind in
  let controls_ok index =
    List.for_all
      (fun (c : Gate.control) ->
        ((index lsr c.qubit) land 1 = 1) = c.positive)
      gate.controls
  in
  Array.init dim (fun r ->
      Array.init dim (fun c ->
          let tbit = 1 lsl gate.target in
          if r land lnot tbit <> c land lnot tbit then Cnum.zero
          else if not (controls_ok c) then
            if r = c then Cnum.one else Cnum.zero
          else
            let ri = (r lsr gate.target) land 1
            and ci = (c lsr gate.target) land 1 in
            m.((ri * 2) + ci)))

(* A gate's control lines in the DD package's form. *)
let dd_controls (gate : Gate.t) =
  List.map
    (fun (c : Gate.control) ->
      { Dd.Context.qubit = c.qubit; positive = c.positive })
    gate.controls

let dense_circuit_matrix circuit =
  let n = Circuit.(circuit.qubits) in
  List.fold_left
    (fun acc gate -> dense_matmul (dense_gate ~n gate) acc)
    (dense_id n) (Circuit.flatten circuit)

(* Run a circuit on the DD engine and return the dense state. *)
let dd_state_of_circuit ?strategy circuit =
  let engine = Dd_sim.Engine.create Circuit.(circuit.qubits) in
  Dd_sim.Engine.run ?strategy engine circuit;
  Dd.Vdd.to_array (Dd_sim.Engine.state engine) ~n:Circuit.(circuit.qubits)

(* Run a circuit on the dense simulator and return the state. *)
let dense_state_of_circuit circuit =
  let state = Dense_state.create Circuit.(circuit.qubits) in
  Dense_state.run state circuit;
  Dense_state.to_array state

let fresh_ctx () = Dd.Context.create ()

(* A hand-built JSONL sidecar made readable: newline-terminated and
   closed by the checksum trailer every sidecar reader requires. *)
let sealed_jsonl body =
  let n = String.length body in
  let body = if n = 0 || body.[n - 1] = '\n' then body else body ^ "\n" in
  body ^ Obs.Safe_io.jsonl_trailer body
