type t = {
  mutable mat_vec_mults : int;
  mutable mat_mat_mults : int;
  mutable fast_path_applies : int;
  mutable gates_seen : int;
  mutable combined_applications : int;
  mutable peak_state_nodes : int;
  mutable peak_matrix_nodes : int;
  mutable fallbacks : int;
  mutable auto_gcs : int;
  mutable renormalizations : int;
  mutable checkpoints_written : int;
  mutable gc_pause_seconds : float;
  mutable gc_reclaimed_nodes : int;
  mutable wall_time_seconds : float;
  mutable trace_events_dropped : int;
  mutable audits_run : int;
  mutable audit_violations : int;
  mutable audit_repairs : int;
  mutable reorders_run : int;
  mutable reorder_swaps : int;
  mutable reorder_nodes_before : int;
  mutable reorder_nodes_after : int;
  mutable ledger_entries : int;
}

let create () =
  {
    mat_vec_mults = 0;
    mat_mat_mults = 0;
    fast_path_applies = 0;
    gates_seen = 0;
    combined_applications = 0;
    peak_state_nodes = 0;
    peak_matrix_nodes = 0;
    fallbacks = 0;
    auto_gcs = 0;
    renormalizations = 0;
    checkpoints_written = 0;
    gc_pause_seconds = 0.;
    gc_reclaimed_nodes = 0;
    wall_time_seconds = 0.;
    trace_events_dropped = 0;
    audits_run = 0;
    audit_violations = 0;
    audit_repairs = 0;
    reorders_run = 0;
    reorder_swaps = 0;
    reorder_nodes_before = 0;
    reorder_nodes_after = 0;
    ledger_entries = 0;
  }

(* The one list of counters: assign, the checkpoint's stats object
   and the telemetry snapshot all walk it, so a new counter is a record
   field, its [create] value and one line here. *)
type field =
  | Int of string * (t -> int) * (t -> int -> unit)
  | Float of string * (t -> float) * (t -> float -> unit)

let fields =
  [
    Int ("mat_vec_mults", (fun s -> s.mat_vec_mults),
         fun s v -> s.mat_vec_mults <- v);
    Int ("mat_mat_mults", (fun s -> s.mat_mat_mults),
         fun s v -> s.mat_mat_mults <- v);
    Int ("fast_path_applies", (fun s -> s.fast_path_applies),
         fun s v -> s.fast_path_applies <- v);
    Int ("gates_seen", (fun s -> s.gates_seen),
         fun s v -> s.gates_seen <- v);
    Int ("combined_applications", (fun s -> s.combined_applications),
         fun s v -> s.combined_applications <- v);
    Int ("peak_state_nodes", (fun s -> s.peak_state_nodes),
         fun s v -> s.peak_state_nodes <- v);
    Int ("peak_matrix_nodes", (fun s -> s.peak_matrix_nodes),
         fun s v -> s.peak_matrix_nodes <- v);
    Int ("fallbacks", (fun s -> s.fallbacks),
         fun s v -> s.fallbacks <- v);
    Int ("auto_gcs", (fun s -> s.auto_gcs),
         fun s v -> s.auto_gcs <- v);
    Int ("renormalizations", (fun s -> s.renormalizations),
         fun s v -> s.renormalizations <- v);
    Int ("checkpoints_written", (fun s -> s.checkpoints_written),
         fun s v -> s.checkpoints_written <- v);
    Float ("gc_pause_seconds", (fun s -> s.gc_pause_seconds),
           fun s v -> s.gc_pause_seconds <- v);
    Int ("gc_reclaimed_nodes", (fun s -> s.gc_reclaimed_nodes),
         fun s v -> s.gc_reclaimed_nodes <- v);
    Float ("wall_time_seconds", (fun s -> s.wall_time_seconds),
           fun s v -> s.wall_time_seconds <- v);
    Int ("trace_events_dropped", (fun s -> s.trace_events_dropped),
         fun s v -> s.trace_events_dropped <- v);
    Int ("audits_run", (fun s -> s.audits_run),
         fun s v -> s.audits_run <- v);
    Int ("audit_violations", (fun s -> s.audit_violations),
         fun s v -> s.audit_violations <- v);
    Int ("audit_repairs", (fun s -> s.audit_repairs),
         fun s v -> s.audit_repairs <- v);
    Int ("reorders_run", (fun s -> s.reorders_run),
         fun s v -> s.reorders_run <- v);
    Int ("reorder_swaps", (fun s -> s.reorder_swaps),
         fun s v -> s.reorder_swaps <- v);
    Int ("reorder_nodes_before", (fun s -> s.reorder_nodes_before),
         fun s v -> s.reorder_nodes_before <- v);
    Int ("reorder_nodes_after", (fun s -> s.reorder_nodes_after),
         fun s v -> s.reorder_nodes_after <- v);
    Int ("ledger_entries", (fun s -> s.ledger_entries),
         fun s v -> s.ledger_entries <- v);
  ]

let assign dst src =
  List.iter
    (function
      | Int (_, get, set) -> set dst (get src)
      | Float (_, get, set) -> set dst (get src))
    fields

let copy stats = { stats with mat_vec_mults = stats.mat_vec_mults }

let pp fmt stats =
  Format.fprintf fmt
    "gates=%d mat-vec=%d mat-mat=%d combined-applications=%d \
     peak-state-nodes=%d peak-matrix-nodes=%d"
    stats.gates_seen stats.mat_vec_mults stats.mat_mat_mults
    stats.combined_applications stats.peak_state_nodes
    stats.peak_matrix_nodes;
  if
    stats.fallbacks > 0 || stats.auto_gcs > 0
    || stats.renormalizations > 0
    || stats.checkpoints_written > 0
  then
    Format.fprintf fmt
      " fallbacks=%d auto-gcs=%d renormalizations=%d checkpoints=%d"
      stats.fallbacks stats.auto_gcs stats.renormalizations
      stats.checkpoints_written;
  if stats.auto_gcs > 0 || stats.gc_reclaimed_nodes > 0 then
    Format.fprintf fmt " gc-pause=%.3fms gc-reclaimed=%d"
      (1000. *. stats.gc_pause_seconds)
      stats.gc_reclaimed_nodes;
  if stats.wall_time_seconds > 0. then
    Format.fprintf fmt " wall=%.3fs" stats.wall_time_seconds;
  if stats.trace_events_dropped > 0 then
    Format.fprintf fmt " trace-dropped=%d" stats.trace_events_dropped;
  if stats.audits_run > 0 then
    Format.fprintf fmt " audits=%d audit-violations=%d audit-repairs=%d"
      stats.audits_run stats.audit_violations stats.audit_repairs;
  if stats.reorders_run > 0 then
    Format.fprintf fmt
      " reorders=%d reorder-swaps=%d reorder-nodes=%d->%d"
      stats.reorders_run stats.reorder_swaps stats.reorder_nodes_before
      stats.reorder_nodes_after;
  if stats.ledger_entries > 0 then
    Format.fprintf fmt " ledger-entries=%d" stats.ledger_entries
