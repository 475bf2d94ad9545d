open Dd_complex

type t = {
  context : Dd.Context.t;
  n : int;
  mutable state_edge : Dd.Vdd.edge;
  mutable rng_state : Random.State.t;
  stats : Sim_stats.t;
  mutable track_peaks : bool;
  (* when set (the default), single-target gates applied outside a
     combination window take the structured fast path (Dd.Apply) instead
     of building the n-qubit gate DD; [--no-fused-apply] clears it for
     A/B measurement and debugging *)
  mutable fused_apply : bool;
  (* event sink; Obs.Trace.null (disabled, zero-cost) unless set_trace
     attached a live one — every instrumentation site below checks
     [Obs.Trace.is_on] before computing any event argument *)
  mutable trace : Obs.Trace.t;
  (* structural-profile sink; Obs.Dd_profile.null (disabled, zero-cost)
     unless set_profile attached a live one — the cadence probe
     [Obs.Dd_profile.due] is the first action at every emission site *)
  mutable profile : Obs.Dd_profile.sink;
  (* per-window strategy cost ledger; Obs.Ledger.null (disabled,
     zero-cost) unless set_ledger attached a live one — every recording
     site below checks [Obs.Ledger.is_on] first *)
  mutable ledger : Obs.Ledger.t;
  (* invariant-auditor cadence in applied gates; 0 = off (the default),
     in which case the per-gate probe is one load and one branch *)
  mutable audit_every : int;
  mutable audit_tol : float;
  mutable last_audit : int;
  (* dynamic variable reordering policy (--reorder); Off costs one load
     and one branch per applied gate *)
  mutable reorder_policy : reorder_policy;
  mutable bulge_factor : float;
  (* minimum applied-gate gap between bulge probes (each probe walks the
     state DD to count nodes per level, so it must not run every gate) *)
  mutable reorder_every : int;
  mutable last_reorder : int;
  mutable reorder_done : bool;
}

and reorder_policy = Reorder_off | Reorder_once | Reorder_adaptive

let create ?(seed = 0xDD) ?context n =
  if n <= 0 then
    Error.invalid_parameter ~what:"Engine.create"
      (Printf.sprintf "need at least one qubit (got %d)" n);
  let context =
    match context with Some c -> c | None -> Dd.Context.create ()
  in
  {
    context;
    n;
    state_edge = Dd.Vdd.basis context ~n 0;
    rng_state = Random.State.make [| seed |];
    stats = Sim_stats.create ();
    track_peaks = false;
    fused_apply = true;
    trace = Obs.Trace.null;
    profile = Obs.Dd_profile.null;
    ledger = Obs.Ledger.null;
    audit_every = 0;
    audit_tol = 1e-6;
    last_audit = 0;
    reorder_policy = Reorder_off;
    bulge_factor = 4.0;
    reorder_every = 64;
    last_reorder = 0;
    reorder_done = false;
  }

let context engine = engine.context
let qubits engine = engine.n
let stats engine = engine.stats
let rng engine = engine.rng_state
let set_rng engine rng = engine.rng_state <- rng
let state engine = engine.state_edge

let require_width engine ~what actual =
  if actual <> engine.n then
    Error.raise_error
      (Error.Width_mismatch { what; expected = engine.n; actual })

let set_state engine edge =
  require_width engine ~what:"Engine.set_state" (Dd.Types.v_height edge);
  engine.state_edge <- edge

let reset engine =
  Dd.Context.set_order engine.context Dd.Order.identity;
  engine.state_edge <- Dd.Vdd.basis engine.context ~n:engine.n 0;
  engine.last_audit <- 0;
  engine.last_reorder <- 0;
  engine.reorder_done <- false;
  Sim_stats.reset engine.stats

let set_track_peaks engine flag = engine.track_peaks <- flag
let set_fused_apply engine flag = engine.fused_apply <- flag
let fused_apply engine = engine.fused_apply

let set_domains _engine d =
  if d <> 1 then
    Error.invalid_parameter ~what:"Engine.set_domains"
      (Printf.sprintf "the engine runs on one domain (got %d)" d)

let set_trace engine trace =
  engine.trace <- trace;
  Dd.Context.set_trace engine.context trace

let trace engine = engine.trace
let set_profile engine sink = engine.profile <- sink
let profile engine = engine.profile
let set_ledger engine sink = engine.ledger <- sink
let ledger engine = engine.ledger

let set_audit engine ?(tolerance = 1e-6) every =
  if every < 0 then
    Error.invalid_parameter ~what:"Engine.set_audit"
      (Printf.sprintf "cadence must be >= 0 (got %d)" every);
  if (not (Float.is_finite tolerance)) || tolerance <= 0. then
    Error.invalid_parameter ~what:"Engine.set_audit"
      (Printf.sprintf "tolerance must be positive (got %g)" tolerance);
  engine.audit_every <- every;
  engine.audit_tol <- tolerance;
  engine.last_audit <- 0

let audit_every engine = engine.audit_every

(* disabled path: one load and one branch, zero allocation (asserted by
   the test suite) *)
let audit_due engine ~gate =
  engine.audit_every > 0 && gate - engine.last_audit >= engine.audit_every

(* scale the state back to unit norm, given its squared norm [n2] *)
let renormalize engine n2 =
  engine.state_edge <-
    Dd.Vdd.scale engine.context (Cnum.of_float (1. /. sqrt n2))
      engine.state_edge;
  engine.stats.renormalizations <- engine.stats.renormalizations + 1

(* One auditor pass over the live structures, with the recovery ladder:
   a stale compute-table entry flushes the caches, a canonicity fault
   re-interns the state DD through a canonical rebuild, and norm drift is
   renormalised away.  Violations that survive a full re-check raise a
   structured {!Error.Audit_failure} naming each fault site — the state
   cannot be trusted, resume from the last good checkpoint.  Returns the
   number of violations initially found. *)
let run_audit engine ~gate ~strategy =
  let ctx = engine.context in
  let traced = Obs.Trace.is_on engine.trace in
  let t0 = if traced then Obs.Trace.now engine.trace else 0. in
  engine.last_audit <- gate;
  engine.stats.audits_run <- engine.stats.audits_run + 1;
  let check () =
    Dd.Audit.check_vector ~norm_tol:engine.audit_tol ctx engine.state_edge
    @ Dd.Audit.check_tables ctx
  in
  let emit detail =
    if traced then
      Obs.Trace.span engine.trace Obs.Trace.Audit ~t0 ~gate
        ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
        ~matrix_nodes:(-1) ~hits:0 ~misses:0 ~detail
  in
  let violations = check () in
  let found = List.length violations in
  if found = 0 then emit "clean"
  else begin
    engine.stats.audit_violations <- engine.stats.audit_violations + found;
    let classes = List.map Dd.Audit.class_of violations in
    if List.mem Dd.Audit.Table classes then
      Dd.Context.clear_compute_caches ctx;
    if List.mem Dd.Audit.Canonicity classes then
      engine.state_edge <- Dd.Audit.rebuild_vector ctx engine.state_edge;
    (* rung 3: renormalise drift (whether original or exposed by the
       rebuild folding corrupt weights into the root) *)
    let n2 = Dd.Audit.norm2_uncached engine.state_edge in
    if
      Float.is_finite n2 && n2 > 1e-300
      && Float.abs (sqrt n2 -. 1.) > engine.audit_tol
    then renormalize engine n2;
    match check () with
    | [] ->
      engine.stats.audit_repairs <- engine.stats.audit_repairs + 1;
      emit (Printf.sprintf "%d violation%s repaired" found
              (if found = 1 then "" else "s"))
    | remaining ->
      emit
        (Printf.sprintf "%d violation%s, %d unrecovered" found
           (if found = 1 then "" else "s")
           (List.length remaining));
      Error.raise_error
        (Error.Audit_failure
           {
             violations = List.map Dd.Audit.to_string remaining;
             site =
               {
                 Error.gate_index = gate;
                 strategy;
                 state_nodes = Dd.Vdd.node_count engine.state_edge;
                 matrix_nodes = 0;
               };
           })
  end;
  found

let audit_now engine =
  run_audit engine ~gate:engine.stats.gates_seen
    ~strategy:Strategy.Sequential

let set_reorder engine ?(bulge_factor = 4.0) ?(every = 64) policy =
  if (not (Float.is_finite bulge_factor)) || bulge_factor <= 1. then
    Error.invalid_parameter ~what:"Engine.set_reorder"
      (Printf.sprintf "bulge factor must be > 1 (got %g)" bulge_factor);
  if every < 1 then
    Error.invalid_parameter ~what:"Engine.set_reorder"
      (Printf.sprintf "cadence must be >= 1 (got %d)" every);
  engine.reorder_policy <- policy;
  engine.bulge_factor <- bulge_factor;
  engine.reorder_every <- every;
  engine.last_reorder <- 0;
  engine.reorder_done <- false

let reorder_policy engine = engine.reorder_policy

(* trace time now, when tracing; the start of a span *)
let trace_now engine =
  if Obs.Trace.is_on engine.trace then Obs.Trace.now engine.trace else 0.

(* install a reordered state edge and account the pass, traced as one
   [Reorder] span since [t0] *)
let note_reorder engine ~t0 edge ~swaps ~nodes_before ~nodes_after ~detail =
  engine.state_edge <- edge;
  engine.stats.reorders_run <- engine.stats.reorders_run + 1;
  engine.stats.reorder_swaps <- engine.stats.reorder_swaps + swaps;
  engine.stats.reorder_nodes_before <-
    engine.stats.reorder_nodes_before + nodes_before;
  engine.stats.reorder_nodes_after <-
    engine.stats.reorder_nodes_after + nodes_after;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.span engine.trace Obs.Trace.Reorder ~t0
      ~gate:engine.stats.gates_seen ~state_nodes:nodes_after
      ~matrix_nodes:(-1) ~hits:0 ~misses:0
      ~detail:
        (Printf.sprintf "%s: %d swaps, %d -> %d nodes" detail swaps
           nodes_before nodes_after)

(* One sifting pass over the live state: the state edge and the context's
   order move together (every adjacent swap updates both), so callers see
   a semantically identical state under a cheaper order. *)
let reorder_now ?max_growth ?max_passes engine =
  let t0 = trace_now engine in
  let edge, rstats =
    Dd.Reorder.sift ?max_growth ?max_passes engine.context engine.state_edge
  in
  note_reorder engine ~t0 edge ~swaps:rstats.Dd.Reorder.swaps
    ~nodes_before:rstats.Dd.Reorder.nodes_before
    ~nodes_after:rstats.Dd.Reorder.nodes_after ~detail:"sift";
  rstats

(* Permute the live state to an explicit target order (the --order flag).
   Counts as a reordering pass and satisfies the Once policy — a
   hand-picked order should not be second-guessed by a later sift. *)
let set_order engine order =
  if not (Dd.Order.is_identity order) && Dd.Order.size order <> engine.n
  then
    Error.invalid_parameter ~what:"Engine.set_order"
      (Printf.sprintf "order covers %d levels, engine has %d qubits"
         (Dd.Order.size order) engine.n);
  let t0 = trace_now engine in
  let nodes_before = Dd.Vdd.node_count engine.state_edge in
  let edge, swaps =
    Dd.Reorder.apply_order engine.context engine.state_edge order
  in
  note_reorder engine ~t0 edge ~swaps ~nodes_before
    ~nodes_after:(Dd.Vdd.node_count edge) ~detail:"explicit order";
  engine.reorder_done <- true;
  swaps

(* Bulge probe + sift, at the [reorder_every] cadence.  The probe reads
   the unique table's incrementally maintained per-level resident counts
   (O(levels), no DD walk) — between GCs these cover every resident
   vector node, a superset of the state's reachable set, which is the
   right quantity to bound: a bulge in residency is memory pressure
   whether or not every node is still reachable. *)
let maybe_reorder engine ~gate =
  match engine.reorder_policy with
  | Reorder_off -> ()
  | Reorder_once when engine.reorder_done -> ()
  | Reorder_once | Reorder_adaptive ->
    if gate - engine.last_reorder >= engine.reorder_every then begin
      engine.last_reorder <- gate;
      let counts =
        Dd.Context.per_level_v_nodes engine.context ~levels:engine.n
      in
      match
        Obs.Dd_profile.bulge ~factor:engine.bulge_factor counts
      with
      | Some _ ->
        engine.reorder_done <- true;
        ignore (reorder_now engine)
      | None -> ()
    end

(* A traced run keeps the peaks too: the report cross-checks the
   trajectory maximum against [peak_state_nodes], and a trace without its
   aggregate counterpart would leave that unverifiable. *)
let note_state_peak engine =
  if engine.track_peaks || Obs.Trace.is_on engine.trace then
    engine.stats.peak_state_nodes <-
      max engine.stats.peak_state_nodes
        (Dd.Vdd.node_count engine.state_edge)

let note_matrix_peak engine matrix =
  if engine.track_peaks || Obs.Trace.is_on engine.trace then
    engine.stats.peak_matrix_nodes <-
      max engine.stats.peak_matrix_nodes (Dd.Mdd.node_count matrix)

(* -- the instrumentation funnel ------------------------------------------ *)

(* The four kernel operations (gate-DD build, structured apply, generic
   mat-vec, mat-mat) bracket their DD call with [op_start] / [op_done],
   the only code that feeds a kernel op to the trace and the ledger.  One
   clock reading at the start serves both sinks.  Memo traffic is the
   delta of the op's primary table (apply / mul_mv / mul_mm); recursive
   helpers (add_v, ...) are not included — the delta answers "did this op
   hit the memo layer", not "every table the recursion touched".  With
   both sinks off a bracket is two flag checks and allocates nothing. *)
type op = Build | Fast | Generic | Product

type mark = { t0 : float; hits0 : int; lookups0 : int }

let unmarked = { t0 = 0.; hits0 = 0; lookups0 = 0 }

let sinks_on engine =
  Obs.Trace.is_on engine.trace || Obs.Ledger.is_on engine.ledger

let op_traffic ctx op =
  let open Dd.Compute_table in
  match op with
  | Build -> (0, 0)
  | Fast -> (hits ctx.Dd.Context.apply_v, lookups ctx.Dd.Context.apply_v)
  | Generic -> (hits ctx.Dd.Context.mul_mv, lookups ctx.Dd.Context.mul_mv)
  | Product -> (hits ctx.Dd.Context.mul_mm, lookups ctx.Dd.Context.mul_mm)

let op_start engine op =
  if not (sinks_on engine) then unmarked
  else
    let hits0, lookups0 = op_traffic engine.context op in
    { t0 = Obs.Clock.now (); hits0; lookups0 }

(* [matrix] is the DD a Generic op applied or a Product op built *)
let op_done engine op mark matrix =
  if sinks_on engine then begin
    let led = engine.ledger and trace = engine.trace in
    let seconds = Obs.Clock.now () -. mark.t0 in
    let hits1, lookups1 = op_traffic engine.context op in
    let hits = hits1 - mark.hits0 in
    let misses = lookups1 - mark.lookups0 - hits in
    let matrix_nodes =
      match op with
      | Generic | Product -> Dd.Mdd.node_count matrix
      | Build | Fast -> -1
    in
    if op = Fast || op = Generic then Obs.Ledger.add_apply led seconds
    else Obs.Ledger.add_build led seconds;
    if op <> Build then Obs.Ledger.add_traffic led ~hits ~misses;
    Obs.Ledger.note_matrix led matrix_nodes;
    if Obs.Trace.is_on trace && op <> Build then
      Obs.Trace.span trace
        (if op = Product then Obs.Trace.Mat_mat else Obs.Trace.Mat_vec)
        ~t0:(Obs.Trace.rel trace mark.t0)
        ~gate:(Obs.Trace.gate trace)
        ~state_nodes:
          (if op = Product then -1 else Dd.Vdd.node_count engine.state_edge)
        ~matrix_nodes ~hits ~misses
        ~detail:(match op with Fast -> "fast" | Generic -> "generic" | _ -> "")
  end

(* the DD package's control lines, for both the gate-DD and the fused path *)
let dd_controls (gate : Gate.t) =
  List.map
    (fun (c : Gate.control) ->
      { Dd.Context.qubit = c.qubit; positive = c.positive })
    gate.controls

let gate_dd engine (gate : Gate.t) =
  let mark = op_start engine Build in
  let matrix =
    Dd.Mdd.gate engine.context ~n:engine.n ~target:gate.target
      ~controls:(dd_controls gate) (Gate.matrix gate.kind)
  in
  op_done engine Build mark matrix;
  matrix

let apply_matrix engine matrix =
  let mark = op_start engine Generic in
  engine.state_edge <- Dd.Mdd.apply engine.context matrix engine.state_edge;
  engine.stats.mat_vec_mults <- engine.stats.mat_vec_mults + 1;
  engine.stats.generic_applies <- engine.stats.generic_applies + 1;
  note_matrix_peak engine matrix;
  note_state_peak engine;
  op_done engine Generic mark matrix

(* Structured fast path: the gate is applied to the state DD directly
   (Dd.Apply), never materialising the n-qubit gate DD — no identity
   nodes, no mul_mv traffic.  Still one logical mat-vec, so
   [mat_vec_mults] counts it alongside [fast_path_applies]. *)
let apply_structured engine (gate : Gate.t) =
  let mark = op_start engine Fast in
  engine.state_edge <-
    Dd.Apply.apply engine.context ~n:engine.n ~target:gate.target
      ~controls:(dd_controls gate) (Gate.matrix gate.kind) engine.state_edge;
  engine.stats.mat_vec_mults <- engine.stats.mat_vec_mults + 1;
  engine.stats.fast_path_applies <- engine.stats.fast_path_applies + 1;
  note_state_peak engine;
  op_done engine Fast mark Dd.Mdd.zero

(* one gate onto the state, honouring the fused-apply switch *)
let apply_gate_single engine gate =
  if engine.fused_apply then apply_structured engine gate
  else apply_matrix engine (gate_dd engine gate)

let apply_gate engine gate =
  engine.stats.gates_seen <- engine.stats.gates_seen + 1;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.set_gate engine.trace (engine.stats.gates_seen - 1);
  apply_gate_single engine gate;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.instant engine.trace Obs.Trace.Gate_applied
      ~gate:(Obs.Trace.gate engine.trace)
      ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
      ~matrix_nodes:(-1) ~detail:(Gate.name gate)

let multiply_onto engine gate product =
  let mark = op_start engine Product in
  engine.stats.mat_mat_mults <- engine.stats.mat_mat_mults + 1;
  let result = Dd.Mdd.mul engine.context gate product in
  note_matrix_peak engine result;
  op_done engine Product mark result;
  result

(* the product of a gate sequence in application order, by mat-mat
   multiplications; counts no gates (callers decide what was seen) *)
let product_of engine = function
  | [] -> Dd.Mdd.identity engine.context engine.n
  | first :: rest ->
    List.fold_left
      (fun product gate -> multiply_onto engine (gate_dd engine gate) product)
      (gate_dd engine first) rest

let combine engine gates =
  engine.stats.gates_seen <- engine.stats.gates_seen + List.length gates;
  product_of engine gates

(* -- Engine.run: a run-state record and named steps --------------------- *)

(* The open combination window, shared by the k-operations and max-size
   strategies: gates accumulate into a product by mat-mat
   multiplications, which [flush] applies onto the state as one
   mat-vec. *)
type window = {
  mutable product : Dd.Mdd.edge option;  (* partial product *)
  mutable count : int;  (* gates in the window; 0 = no window open *)
  mutable tail : int;  (* breached window's gates left to apply singly *)
}

type run_state = {
  engine : t;
  strategy : Strategy.t;
  guard : Guard.t;
  guarded : bool;
  traced : bool;
  ledgered : bool;
  use_repeating : bool;
  start_gate : int;
  checkpoint_every : int;
  on_checkpoint : (gate_index:int -> unit) option;
  run_t0 : float;
  window : window;
  (* gates whose effect is in the state; the resume point of checkpoints *)
  mutable applied : int;
  (* gates seen in application order, for skipping on resume *)
  mutable cursor : int;
  mutable last_checkpoint : int;
  (* combined Repeat-block matrix, rooted during its application loop so
     an automatic GC cannot reclaim it *)
  mutable block_root : Dd.Mdd.edge option;
}

let validate ~strategy ~start_gate ~checkpoint_every engine circuit =
  (match Strategy.check strategy with
  | Ok () -> ()
  | Error message -> Error.invalid_parameter ~what:"Strategy" message);
  if start_gate < 0 then
    Error.invalid_parameter ~what:"Engine.run"
      (Printf.sprintf "negative start_gate (%d)" start_gate);
  if checkpoint_every < 1 then
    Error.invalid_parameter ~what:"Engine.run"
      (Printf.sprintf "checkpoint_every must be >= 1 (got %d)"
         checkpoint_every);
  require_width engine ~what:"Engine.run" Circuit.(circuit.qubits)

let window_nodes w =
  match w.product with Some p -> Dd.Mdd.node_count p | None -> 0

let write_checkpoint rs ~force =
  match rs.on_checkpoint with
  | Some callback
    when force || rs.applied - rs.last_checkpoint >= rs.checkpoint_every ->
    let engine = rs.engine in
    (* counted before the callback snapshots the stats, so the checkpoint
       a run resumes from counts itself *)
    engine.stats.checkpoints_written <- engine.stats.checkpoints_written + 1;
    callback ~gate_index:rs.applied;
    rs.last_checkpoint <- rs.applied;
    if rs.traced then
      Obs.Trace.instant engine.trace Obs.Trace.Checkpoint ~gate:rs.applied
        ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
        ~matrix_nodes:(-1)
        ~detail:(if force then "forced" else "periodic")
  | _ -> ()

let site rs =
  {
    Error.gate_index = rs.applied;
    strategy = rs.strategy;
    state_nodes = Dd.Vdd.node_count rs.engine.state_edge;
    matrix_nodes = window_nodes rs.window;
  }

(* structured abort, after forcing a checkpoint so the run can resume *)
let abort rs kind ~limit ~actual =
  write_checkpoint rs ~force:true;
  Error.raise_error
    (Error.Budget_exhausted { kind; limit; actual; site = site rs })

(* Dd.Context.collect rooted at the state (plus [m_roots]), accounted in
   the stats; returns the vector and matrix nodes reclaimed *)
let collect engine ~m_roots =
  let v_removed, m_removed =
    Dd.Context.collect engine.context ~v_roots:[ engine.state_edge ] ~m_roots
  in
  engine.stats.gc_reclaimed_nodes <-
    engine.stats.gc_reclaimed_nodes + v_removed + m_removed;
  engine.stats.gc_pause_seconds <-
    engine.stats.gc_pause_seconds
    +. (Dd.Context.gc_stats engine.context).Dd.Context.last_pause;
  (v_removed, m_removed)

let auto_gc rs =
  let w = rs.window in
  let m_roots = List.filter_map Fun.id [ w.product; rs.block_root ] in
  ignore (collect rs.engine ~m_roots);
  rs.engine.stats.auto_gcs <- rs.engine.stats.auto_gcs + 1

let check_deadline rs =
  match rs.guard.Guard.deadline with
  | None -> ()
  | Some limit ->
    let elapsed = Obs.Clock.now () -. rs.run_t0 in
    if elapsed >= limit then abort rs Error.Deadline ~limit ~actual:elapsed

let live_nodes ctx = Dd.Context.live_v_nodes ctx + Dd.Context.live_m_nodes ctx

let check_memory rs =
  let ctx = rs.engine.context in
  (match rs.guard.Guard.gc_high_water with
  | Some high_water when live_nodes ctx > high_water -> auto_gc rs
  | _ -> ());
  match rs.guard.Guard.max_live_nodes with
  | Some limit when live_nodes ctx > limit ->
    (* last-ditch collection before declaring the memory budget exhausted *)
    auto_gc rs;
    let actual = live_nodes ctx in
    if actual > limit then
      abort rs Error.Live_nodes ~limit:(float_of_int limit)
        ~actual:(float_of_int actual)
  | _ -> ()

let check_norm rs =
  match rs.guard.Guard.norm_tolerance with
  | None -> ()
  | Some tolerance ->
    let engine = rs.engine in
    let n2 = Dd.Measure.norm2 engine.context engine.state_edge in
    if not (Float.is_finite n2) || n2 < 1e-300 then begin
      write_checkpoint rs ~force:true;
      Error.raise_error
        (Error.Renormalization_failed { norm2 = n2; site = site rs })
    end
    else if Float.abs (sqrt n2 -. 1.) > tolerance then begin
      renormalize engine n2;
      if rs.traced then
        Obs.Trace.instant engine.trace Obs.Trace.Renormalize
          ~gate:(Obs.Trace.gate engine.trace)
          ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
          ~matrix_nodes:(-1)
          ~detail:(Printf.sprintf "norm drifted to %.9f" (sqrt n2))
    end

(* Close the open ledger entry with end-of-window gauges; a no-op when
   none is open. *)
let led_commit rs =
  let led = rs.engine.ledger in
  if rs.ledgered && Obs.Ledger.active led then
    Obs.Ledger.commit led ~gate_end:rs.applied
      ~state_nodes:(Dd.Vdd.node_count rs.engine.state_edge)
      ~heap_words:(Gc.quick_stat ()).Gc.live_words
      ~table_bytes:(Dd.Context.residency_bytes rs.engine.context)

let led_open rs ~seq =
  if rs.ledgered then begin
    led_commit rs;
    Obs.Ledger.open_entry rs.engine.ledger ~seq ~gate:rs.applied
      ~state_nodes:(Dd.Vdd.node_count rs.engine.state_edge)
  end

(* Apply the open window onto the state: the product goes on as one
   mat-vec, a window of several gates emits one [Window_combined] span,
   and the window's ledger entry commits — unless a breached window's
   sequential tail still belongs to it. *)
let flush rs =
  let engine = rs.engine and w = rs.window in
  if w.count > 0 then begin
    let combined = w.count > 1 in
    if combined then
      engine.stats.combined_applications <-
        engine.stats.combined_applications + 1;
    let t0 = trace_now engine in
    let product = Option.get w.product in
    w.product <- None;
    apply_matrix engine product;
    if rs.traced && combined then
      Obs.Trace.span engine.trace Obs.Trace.Window_combined ~t0
        ~gate:(Obs.Trace.gate engine.trace)
        ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
        ~matrix_nodes:(Dd.Mdd.node_count product)
        ~hits:0 ~misses:0
        ~detail:(Printf.sprintf "%d gates" w.count);
    rs.applied <- rs.applied + w.count;
    w.count <- 0;
    if w.tail = 0 then led_commit rs
  end

(* structural snapshot of the state DD; only taken when the state is an
   exact gate prefix *)
let snapshot_profile rs =
  let engine = rs.engine in
  Obs.Dd_profile.emit engine.profile
    (Dd.Profile.vector ~gate:rs.applied
       ~t:(Obs.Clock.now () -. rs.run_t0)
       ~order:(Dd.Context.order engine.context) engine.state_edge)

(* after the state advanced and no window is pending: guard the new
   state, then maybe checkpoint — the only points where a periodic
   checkpoint is taken, so a snapshot is always an exact gate prefix *)
let after_state_update rs =
  let engine = rs.engine in
  (* fault harness: a GC right after the state advanced is the most
     adversarial moment — every compute-table entry for the gate just
     applied is still hot *)
  if Fault.fire Fault.Forced_gc then
    ignore
      (Dd.Context.collect engine.context ~v_roots:[ engine.state_edge ]
         ~m_roots:[]);
  if rs.guarded then begin
    check_norm rs;
    check_memory rs
  end;
  if audit_due engine ~gate:rs.applied then
    ignore (run_audit engine ~gate:rs.applied ~strategy:rs.strategy);
  (* reorder before profiling, so snapshots reflect the new order *)
  maybe_reorder engine ~gate:rs.applied;
  (* the disabled profile path is the [due] probe alone: one load and one
     branch, nothing allocated (the test suite asserts this) *)
  if Obs.Dd_profile.due engine.profile ~gate:rs.applied then
    snapshot_profile rs;
  write_checkpoint rs ~force:false

(* One gate straight onto the state: the Sequential strategy itself, or
   the sequential tail of a breached combination window, whose degraded
   ledger entry closes with its last tail gate.  Both go through
   [apply_gate_single]: with fused apply on, the gate DD is never built.
   Combined-window products keep the generic [Mdd] path (the whole point
   of mat-mat combination is re-using those DDs). *)
let absorb_sequential rs gate =
  let led = rs.engine.ledger and w = rs.window in
  let in_tail = w.tail > 0 in
  if in_tail then w.tail <- w.tail - 1
  else if rs.ledgered && not (Obs.Ledger.active led) then
    led_open rs ~seq:true;
  Obs.Ledger.add_gates led 1;
  apply_gate_single rs.engine gate;
  rs.applied <- rs.applied + 1;
  (* long sequential stretches rotate into fresh entries so the ledger
     samples memory gauges along the way *)
  if (in_tail && w.tail = 0) || Obs.Ledger.rotate_due led then led_commit rs;
  after_state_update rs

let note_fallback rs =
  let engine = rs.engine in
  engine.stats.fallbacks <- engine.stats.fallbacks + 1;
  if rs.traced then
    Obs.Trace.instant engine.trace Obs.Trace.Fallback
      ~gate:(Obs.Trace.gate engine.trace)
      ~state_nodes:(-1) ~matrix_nodes:(window_nodes rs.window)
      ~detail:"window over matrix budget; degrading to sequential";
  if rs.ledgered then
    Obs.Ledger.degrade engine.ledger
      ~detail:
        (match rs.guard.Guard.max_matrix_nodes with
        | Some limit -> Printf.sprintf "max_matrix_nodes %d" limit
        | None -> "matrix budget")

(* One gate into the open window (k-operations and max-size).  An
   over-budget partial product degrades gracefully: it is flushed, and
   this gate plus the window's remaining ones (k-operations) go through
   sequentially. *)
let absorb_window rs gate =
  let engine = rs.engine and w = rs.window in
  match (rs.guard.Guard.max_matrix_nodes, w.product) with
  | Some limit, Some product when Dd.Mdd.node_count product > limit ->
    note_fallback rs;
    w.tail <-
      (match rs.strategy with Strategy.K_operations k -> k - w.count | _ -> 1);
    flush rs;
    absorb_sequential rs gate
  | _ ->
    if w.count = 0 then led_open rs ~seq:false;
    Obs.Ledger.add_gates engine.ledger 1;
    let matrix = gate_dd engine gate in
    w.product <-
      Some
        (match w.product with
        | None -> matrix
        | Some product -> multiply_onto engine matrix product);
    w.count <- w.count + 1;
    let full =
      match (rs.strategy, w.product) with
      | Strategy.K_operations k, _ -> w.count >= k
      | Strategy.Max_size bound, Some product ->
        Dd.Mdd.node_count product > bound
      | _ -> false
    in
    if full then flush rs;
    if w.count = 0 then after_state_update rs

let absorb rs gate =
  let engine = rs.engine and w = rs.window in
  if rs.guarded then check_deadline rs;
  engine.stats.gates_seen <- engine.stats.gates_seen + 1;
  (match rs.strategy with
  | Strategy.Sequential -> absorb_sequential rs gate
  | Strategy.K_operations _ | Strategy.Max_size _ ->
    if w.tail > 0 then absorb_sequential rs gate else absorb_window rs gate);
  if rs.traced then
    (* node count only when the state actually reflects this gate — an
       open window means the effect has not landed yet *)
    Obs.Trace.instant engine.trace Obs.Trace.Gate_applied
      ~gate:(Obs.Trace.gate engine.trace)
      ~state_nodes:
        (if w.count = 0 then Dd.Vdd.node_count engine.state_edge else -1)
      ~matrix_nodes:(if w.count = 0 then -1 else window_nodes w)
      ~detail:(Gate.name gate)

let absorb_or_skip rs gate =
  if rs.cursor >= rs.start_gate then begin
    if rs.traced then Obs.Trace.set_gate rs.engine.trace rs.cursor;
    absorb rs gate
  end;
  rs.cursor <- rs.cursor + 1

(* DD-repeating: the body's product is built once and applied once per
   remaining repetition.  Each application is a state update of its own
   and counts the body's gates as seen. *)
let repeat_block rs ~count body =
  let engine = rs.engine in
  let gates = Circuit.flatten (Circuit.create ~qubits:engine.n body) in
  let len = List.length gates in
  let todo = ref count in
  (* skip whole repetitions that precede the resume point *)
  while !todo > 0 && rs.cursor + len <= rs.start_gate do
    rs.cursor <- rs.cursor + len;
    decr todo
  done;
  if !todo > 0 && rs.cursor < rs.start_gate then begin
    (* the resume point falls inside one repetition: finish that
       repetition gate by gate *)
    List.iter (absorb_or_skip rs) gates;
    decr todo
  end;
  let todo = !todo in
  if todo > 0 then begin
    flush rs;
    led_open rs ~seq:false;
    let block = product_of engine gates in
    engine.stats.combined_applications <-
      engine.stats.combined_applications + todo;
    if rs.ledgered then begin
      (* one combined k-gate matrix applied [todo] times: record the
         build k, attribute every covered gate so per-gate amortization
         reflects the reuse *)
      Obs.Ledger.set_window_k engine.ledger len;
      Obs.Ledger.add_gates engine.ledger (len * todo);
      Obs.Ledger.note_detail engine.ledger
        (Printf.sprintf "repeat block of %d gates x %d" len todo)
    end;
    rs.block_root <- Some block;
    for _ = 1 to todo do
      if rs.guarded then check_deadline rs;
      engine.stats.gates_seen <- engine.stats.gates_seen + len;
      if rs.traced then Obs.Trace.set_gate engine.trace (rs.cursor + len - 1);
      apply_matrix engine block;
      rs.applied <- rs.applied + len;
      rs.cursor <- rs.cursor + len;
      if rs.traced then
        Obs.Trace.instant engine.trace Obs.Trace.Window_combined
          ~gate:(rs.cursor - 1)
          ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
          ~matrix_nodes:(Dd.Mdd.node_count block)
          ~detail:(Printf.sprintf "repeat block of %d gates" len);
      after_state_update rs
    done;
    led_commit rs;
    rs.block_root <- None
  end

let rec walk rs op =
  match op with
  | Circuit.Gate gate -> absorb_or_skip rs gate
  | Circuit.Repeat { count; body } ->
    if rs.use_repeating && count > 1 then repeat_block rs ~count body
    else
      for _ = 1 to count do
        List.iter (walk rs) body
      done

(* end of a completed walk: the last window lands, and the profile and
   checkpoint cover the final state whatever their cadence *)
let finish rs =
  flush rs;
  led_commit rs;
  let profile = rs.engine.profile in
  if
    Obs.Dd_profile.is_on profile
    && Obs.Dd_profile.last_gate profile <> rs.applied
  then snapshot_profile rs;
  if rs.applied > rs.last_checkpoint then write_checkpoint rs ~force:true

(* runs on every exit, including structured aborts out of [walk]: the
   open ledger entry of an aborted run commits, and wall time and the
   dropped-event count survive *)
let teardown rs =
  let engine = rs.engine in
  led_commit rs;
  if rs.ledgered then
    engine.stats.ledger_entries <- Obs.Ledger.length engine.ledger;
  engine.stats.wall_time_seconds <-
    engine.stats.wall_time_seconds +. (Obs.Clock.now () -. rs.run_t0);
  if rs.traced then
    engine.stats.trace_events_dropped <- Obs.Trace.dropped engine.trace

(* The skeleton: validate, build the run state, walk the circuit, finish;
   [teardown] runs on every exit.  Strategy and guard semantics are
   documented on [run] in engine.mli. *)
let run ?(strategy = Strategy.Sequential) ?(use_repeating = false)
    ?(guard = Guard.none) ?(checkpoint_every = 1024) ?on_checkpoint
    ?(start_gate = 0) engine circuit =
  validate ~strategy ~start_gate ~checkpoint_every engine circuit;
  let run_t0 = Obs.Clock.now () in
  let rs =
    {
      engine;
      strategy;
      guard;
      guarded = not (Guard.is_none guard);
      traced = Obs.Trace.is_on engine.trace;
      ledgered = Obs.Ledger.is_on engine.ledger;
      use_repeating;
      start_gate;
      checkpoint_every;
      on_checkpoint;
      run_t0;
      window = { product = None; count = 0; tail = 0 };
      applied = start_gate;
      cursor = 0;
      last_checkpoint = start_gate;
      block_root = None;
    }
  in
  Fun.protect
    ~finally:(fun () -> teardown rs)
    (fun () ->
      List.iter (walk rs) Circuit.(circuit.ops);
      finish rs)

let amplitude engine index =
  Dd.Vdd.amplitude
    ~order:(Dd.Context.order engine.context)
    engine.state_edge ~n:engine.n index

let probability_one engine ~qubit =
  Dd.Measure.probability_one engine.context engine.state_edge ~qubit

let probabilities engine =
  Dd.Measure.probabilities
    ~order:(Dd.Context.order engine.context)
    engine.state_edge ~n:engine.n

let state_node_count engine = Dd.Vdd.node_count engine.state_edge

let measure_qubit engine ~qubit =
  let outcome, collapsed =
    Dd.Measure.measure_qubit engine.context engine.rng_state
      engine.state_edge ~qubit
  in
  engine.state_edge <- collapsed;
  if Obs.Trace.is_on engine.trace then
    Obs.Trace.instant engine.trace Obs.Trace.Measure ~gate:(-1)
      ~state_nodes:(Dd.Vdd.node_count engine.state_edge)
      ~matrix_nodes:(-1)
      ~detail:(Printf.sprintf "qubit %d -> %d" qubit (Bool.to_int outcome));
  outcome

let measure_all engine =
  let rec loop qubit acc =
    if qubit >= engine.n then acc
    else
      let bit = measure_qubit engine ~qubit in
      loop (qubit + 1) (if bit then acc lor (1 lsl qubit) else acc)
  in
  loop 0 0

let sample engine =
  Dd.Measure.sample engine.context engine.rng_state engine.state_edge

let fidelity_dense engine reference =
  if Array.length reference <> 1 lsl engine.n then
    Error.invalid_parameter ~what:"Engine.fidelity_dense"
      (Printf.sprintf "reference has %d amplitudes, state has %d"
         (Array.length reference) (1 lsl engine.n));
  let reference_edge = Dd.Vdd.of_array engine.context reference in
  let overlap = Dd.Vdd.dot engine.context reference_edge engine.state_edge in
  Cnum.mag2 overlap

let collect_garbage engine = collect engine ~m_roots:[]
