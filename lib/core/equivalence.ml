open Dd_complex

type result =
  | Equivalent
  | Equivalent_up_to_phase of Cnum.t
  | Not_equivalent

let circuit_matrix engine circuit =
  Engine.combine engine (Circuit.flatten circuit)

(* Random product state |p> = (x) (cos t |0> + e^{if} sin t |1>), cheap as
   a DD (one node per level) and sensitive to every matrix column. *)
let probe_state ctx ~n rng =
  let rec build level edge =
    if level >= n then edge
    else
      let theta = Random.State.float rng Float.pi in
      let phi = Random.State.float rng (2. *. Float.pi) in
      let low = Dd.Vdd.scale ctx (Cnum.of_float (cos theta)) edge in
      let high = Dd.Vdd.scale ctx (Cnum.of_polar (sin theta) phi) edge in
      build (level + 1) (Dd.Vdd.make ctx level low high)
  in
  build 0 (Dd.Vdd.terminal Ctable.one_tag)

(* |<w1|w2>| = |w1| |w2|  iff  w1 and w2 are parallel. *)
let proportional ctx w1 w2 =
  let n1 = Dd.Measure.norm2 ctx w1 and n2 = Dd.Measure.norm2 ctx w2 in
  if n1 < 1e-18 || n2 < 1e-18 then
    if n1 < 1e-18 && n2 < 1e-18 then Some Cnum.one else None
  else
    let overlap = Dd.Vdd.dot ctx w1 w2 in
    if abs_float (Cnum.mag2 overlap -. (n1 *. n2)) < 1e-9 *. n1 *. n2 then
      (* w2 = phase * w1 with phase = <w1|w2> / |w1|^2 *)
      Some (Cnum.scale (1. /. n1) overlap)
    else None

let check ?context a b =
  if Circuit.(a.qubits) <> Circuit.(b.qubits) then
    invalid_arg "Equivalence.check: circuit widths differ";
  let n = Circuit.(a.qubits) in
  let context =
    match context with Some c -> c | None -> Dd.Context.create ()
  in
  let engine = Engine.create ~context n in
  let ua = circuit_matrix engine a in
  let ub = circuit_matrix engine b in
  if Dd.Mdd.equal ua ub then Equivalent
  else begin
    (* canonicity can be broken by floating-point pivot ties, so decide
       with random probe states instead of declaring non-equivalence *)
    let rng = Random.State.make [| 0x51; n |] in
    let rec probes k phase =
      if k = 0 then
        match phase with
        | Some p when Cnum.approx_equal ~tol:1e-9 p Cnum.one -> Equivalent
        | Some p -> Equivalent_up_to_phase p
        | None -> Not_equivalent
      else
        let v = probe_state context ~n rng in
        let w1 = Dd.Mdd.apply context ua v in
        let w2 = Dd.Mdd.apply context ub v in
        match proportional context w2 w1 with
        | None -> Not_equivalent
        | Some p -> (
          match phase with
          | None -> probes (k - 1) (Some p)
          | Some previous ->
            if Cnum.approx_equal ~tol:1e-8 previous p then
              probes (k - 1) (Some previous)
            else Not_equivalent)
    in
    probes 4 None
  end

let equivalent ?(up_to_phase = true) a b =
  match check a b with
  | Equivalent -> true
  | Equivalent_up_to_phase _ -> up_to_phase
  | Not_equivalent -> false
