(* Per-layer trace.  The traced run is the real [Engine.run] with the
   library's own sinks attached: an [Obs.Trace] (a span per mat-vec,
   mat-mat and DD collection, an instant per gate, a span per combined
   window) and an [Obs.Ledger] (window build seconds).  The spans are
   folded into calls and busy seconds per layer.  Memo-table counters are
   read once before and once after the run; each workload drives only one
   of the two apply kernels, so the whole-run deltas belong to it.  OCaml
   GC phase times come from the runtime's own event ring. *)

open Dd_sim

let now = Unix.gettimeofday

(* GC phase times from [Runtime_events], read through a cursor on this
   process. *)
module Gc_events = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    minor : float ref;  (** seconds inside minor collections *)
    major : float ref;  (** seconds inside major slices *)
    lost : int ref;  (** events the ring overwrote before they were read *)
  }

  let start () =
    Runtime_events.start ();
    let minor = ref 0. and major = ref 0. and lost = ref 0 in
    let minor_t0 = ref (-1L) and major_t0 = ref (-1L) in
    let slot = function
      | Runtime_events.EV_MINOR -> Some (minor_t0, minor)
      | Runtime_events.EV_MAJOR -> Some (major_t0, major)
      | _ -> None
    in
    let ns ts = Runtime_events.Timestamp.to_int64 ts in
    let runtime_begin _ ts phase =
      Option.iter (fun (t0, _) -> t0 := ns ts) (slot phase)
    in
    let runtime_end _ ts phase =
      Option.iter
        (fun (t0, total) ->
          if !t0 >= 0L then begin
            total := !total +. (Int64.to_float (Int64.sub (ns ts) !t0) *. 1e-9);
            t0 := -1L
          end)
        (slot phase)
    in
    let lost_events _ n = lost := !lost + n in
    {
      cursor = Runtime_events.create_cursor None;
      callbacks =
        Runtime_events.Callbacks.create ~runtime_begin ~runtime_end
          ~lost_events ();
      minor;
      major;
      lost;
    }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  (* forget everything before this point *)
  let reset t =
    poll t;
    t.minor := 0.;
    t.major := 0.;
    t.lost := 0

  (* [watch t f] runs [f ()] while a 20 ms interval timer reads the ring:
     a Grover run fills the ring's 2^16 words within a second *)
  let watch t f =
    let every = 0.02 in
    let timer interval =
      ignore
        (Unix.setitimer Unix.ITIMER_REAL
           { Unix.it_interval = interval; it_value = interval })
    in
    Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> poll t));
    timer every;
    Fun.protect f ~finally:(fun () ->
        timer 0.;
        Sys.set_signal Sys.sigalrm Sys.Signal_default;
        poll t)
end

(* Counters that only grow during a run, read before and after it. *)
let counters (ctx : Dd.Context.t) =
  let table name t =
    [
      (name ^ ".hits", Dd.Compute_table.hits t);
      (name ^ ".lookups", Dd.Compute_table.lookups t);
    ]
  in
  table "apply" ctx.apply_v
  @ table "mul_mm" ctx.mul_mm
  @ table "add_m" ctx.add_m
  @ table "mul_mv" ctx.mul_mv
  @ table "add_v" ctx.add_v
  @ [
      ("apply.ident_skips", Dd.Context.apply_skips ctx);
      ("unique_v.created", Dd.Context.v_unique_size ctx);
      ("unique_m.created", Dd.Context.m_unique_size ctx);
    ]

(* One layer's spans folded together. *)
type busy = { mutable calls : int; mutable seconds : float }

let busy () = { calls = 0; seconds = 0. }

let add b (ev : Obs.Trace.event) =
  b.calls <- b.calls + 1;
  b.seconds <- b.seconds +. ev.dur

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  failures : string list;  (** checks the traced run failed *)
  wall : float;  (** seconds the traced run took *)
}

(* [measure w input reference ~final_nodes] runs [w] once more on a fresh
   engine with the sinks attached.  Like every timed repetition, the run
   must pass [reference] and end at [final_nodes] nodes. *)
let measure (w : Workload.t) (input : Workload.input) reference ~final_nodes =
  let e = Workload.engine input in
  let ctx = Engine.context e in
  let trace = Obs.Trace.create () and ledger = Obs.Ledger.create () in
  Engine.set_trace e trace;
  Engine.set_ledger e ledger;
  let gc_events = Gc_events.start () in
  (* start from a collected heap, as every timed repetition does *)
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let before = counters ctx in
  Gc_events.reset gc_events;
  let wall =
    Gc_events.watch gc_events (fun () ->
        let t0 = now () in
        Workload.simulate w e input;
        now () -. t0)
  in
  let gc1 = Gc.quick_stat () in
  let delta =
    let after = counters ctx in
    fun name -> List.assoc name after - List.assoc name before
  in
  let live_mb =
    Gc.full_major ();
    Float.of_int ((Gc.quick_stat ()).live_words * 8) /. 1048576.
  in
  let apply = busy () and mul_mv = busy () and mul_mm = busy () in
  let dd_gc = busy () in
  let gates = ref 0 and windows = ref 0 in
  let matrix_peak = ref 0 and reclaimed = ref 0 in
  (* live vector nodes only shrink in a collection, so their peak is the
     larger of the end of the run and the moment before a collection *)
  let live_peak = ref (Dd.Context.live_v_nodes ctx) in
  Obs.Trace.iter
    (fun (ev : Obs.Trace.event) ->
      match ev.kind with
      | Obs.Trace.Gate_applied -> incr gates
      | Window_combined -> incr windows
      | Mat_vec when ev.detail = "fast" -> add apply ev
      | Mat_vec -> add mul_mv ev
      | Mat_mat ->
        add mul_mm ev;
        matrix_peak := max !matrix_peak ev.matrix_nodes
      | Gc ->
        add dd_gc ev;
        Scanf.sscanf ev.detail "reclaimed %d+%d" (fun v m ->
            reclaimed := !reclaimed + v + m;
            live_peak := max !live_peak (ev.state_nodes + v))
      | _ -> ())
    trace;
  let stats = Engine.stats e in
  let build = Obs.Ledger.total_build_seconds ledger in
  let ratio table =
    let lookups = delta (table ^ ".lookups") in
    if lookups = 0 then 0.
    else Float.of_int (delta (table ^ ".hits")) /. Float.of_int lookups
  in
  let count name v = (name, Float.of_int v, "count") in
  let seconds name v = (name, v, "s") in
  let metrics =
    [
      count "engine.gates" !gates;
      count "engine.windows" !windows;
      (* gate-DD construction has no span of its own and stays in here *)
      seconds "engine.self_s"
        (wall -. apply.seconds -. mul_mv.seconds -. mul_mm.seconds
       -. dd_gc.seconds);
      count "apply.calls" apply.calls;
      seconds "apply.busy_s" apply.seconds;
      count "apply.lookups" (delta "apply.lookups");
      ("apply.hit_ratio", ratio "apply", "ratio");
      count "apply.ident_skips" (delta "apply.ident_skips");
      (* with fused apply on, a gate gets a gate DD exactly when it does not
         go through the structured kernel *)
      count "gate_dd.calls" (stats.gates_seen - stats.fast_path_applies);
      seconds "window.build_s" build;
      count "mul_mm.calls" mul_mm.calls;
      seconds "mul_mm.busy_s" mul_mm.seconds;
      count "mul_mm.lookups" (delta "mul_mm.lookups");
      ("mul_mm.hit_ratio", ratio "mul_mm", "ratio");
      count "add_m.lookups" (delta "add_m.lookups");
      ("add_m.hit_ratio", ratio "add_m", "ratio");
      count "mul_mm.peak_matrix_nodes" !matrix_peak;
      count "mul_mv.calls" mul_mv.calls;
      seconds "mul_mv.busy_s" mul_mv.seconds;
      count "mul_mv.lookups" (delta "mul_mv.lookups");
      ("mul_mv.hit_ratio", ratio "mul_mv", "ratio");
      count "add_v.lookups" (delta "add_v.lookups");
      ("add_v.hit_ratio", ratio "add_v", "ratio");
      count "unique_v.created" (delta "unique_v.created");
      count "unique_m.created" (delta "unique_m.created");
      count "unique_v.live_peak" !live_peak;
      count "state.peak_nodes" stats.peak_state_nodes;
      count "ctable.size" (Dd_complex.Ctable.size ctx.ctable);
      count "dd_gc.collections" dd_gc.calls;
      seconds "dd_gc.pause_s" dd_gc.seconds;
      count "dd_gc.reclaimed_nodes" !reclaimed;
      seconds "ocaml_gc.minor_s" !(gc_events.minor);
      seconds "ocaml_gc.major_s" !(gc_events.major);
      ("ocaml_gc.minor_words", gc1.minor_words -. gc0.minor_words, "words");
      ( "ocaml_gc.promoted_words",
        gc1.promoted_words -. gc0.promoted_words,
        "words" );
      count "ocaml_gc.major_collections"
        (gc1.major_collections - gc0.major_collections);
      ("ocaml_gc.live_mb_after_run", live_mb, "MB");
      count "ocaml_gc.lost_events" !(gc_events.lost);
    ]
  in
  let expect what ok = if ok then None else Some what in
  let failures =
    List.filter_map Fun.id
      [
        (match Workload.check reference e with
        | Ok () -> None
        | Error m -> Some ("traced run: " ^ m));
        expect
          (Printf.sprintf "traced run ends at %d nodes, the warm-up at %d"
             (Engine.state_node_count e) final_nodes)
          (Engine.state_node_count e = final_nodes);
        expect
          (Printf.sprintf "trace dropped %d events" (Obs.Trace.dropped trace))
          (Obs.Trace.dropped trace = 0);
        expect
          (Printf.sprintf "%d runtime events lost" !(gc_events.lost))
          (!(gc_events.lost) = 0);
      ]
  in
  { metrics; failures; wall }
