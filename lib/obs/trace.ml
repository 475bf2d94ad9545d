type kind =
  | Gate_applied
  | Window_combined
  | Mat_vec
  | Mat_mat
  | Gc
  | Fallback
  | Renormalize
  | Checkpoint
  | Measure
  | Audit
  | Reorder

type event = {
  kind : kind;
  t : float;
  dur : float;
  gate_index : int;
  state_nodes : int;
  matrix_nodes : int;
  hits : int;
  misses : int;
  detail : string;
}

type t = {
  mutable enabled : bool;
  mutable events : event array;
  mutable len : int;
  max_events : int;
  mutable dropped : int;
  epoch : float;
  mutable gate_index : int;
  is_null : bool;
}

let dummy_event =
  {
    kind = Gc;
    t = 0.;
    dur = 0.;
    gate_index = -1;
    state_nodes = -1;
    matrix_nodes = -1;
    hits = 0;
    misses = 0;
    detail = "";
  }

let null =
  {
    enabled = false;
    events = [||];
    len = 0;
    max_events = 0;
    dropped = 0;
    epoch = 0.;
    gate_index = -1;
    is_null = true;
  }

let create ?(max_events = 1 lsl 20) () =
  if max_events < 1 then
    invalid_arg "Trace.create: max_events must be >= 1";
  {
    enabled = true;
    events = Array.make (min 4096 max_events) dummy_event;
    len = 0;
    max_events;
    dropped = 0;
    epoch = Clock.now ();
    gate_index = -1;
    is_null = false;
  }

let is_on t = t.enabled
let set_enabled t flag = if not t.is_null then t.enabled <- flag
let now t = Clock.now () -. t.epoch
let rel t abs = abs -. t.epoch
let set_gate t i = t.gate_index <- i
let gate t = t.gate_index

let emit t event =
  if t.len < Array.length t.events then begin
    t.events.(t.len) <- event;
    t.len <- t.len + 1
  end
  else if t.len >= t.max_events then t.dropped <- t.dropped + 1
  else begin
    let grown =
      Array.make (min t.max_events (max 8 (2 * t.len))) dummy_event
    in
    Array.blit t.events 0 grown 0 t.len;
    t.events <- grown;
    t.events.(t.len) <- event;
    t.len <- t.len + 1
  end

let instant t kind ~gate ~state_nodes ~matrix_nodes ~detail =
  if t.enabled then
    emit t
      {
        kind;
        t = now t;
        dur = 0.;
        gate_index = gate;
        state_nodes;
        matrix_nodes;
        hits = 0;
        misses = 0;
        detail;
      }

let span t kind ~t0 ~gate ~state_nodes ~matrix_nodes ~hits ~misses ~detail =
  if t.enabled then begin
    let t1 = now t in
    emit t
      {
        kind;
        t = t0;
        dur = Float.max 0. (t1 -. t0);
        gate_index = gate;
        state_nodes;
        matrix_nodes;
        hits;
        misses;
        detail;
      }
  end

let length t = t.len
let dropped t = t.dropped
let events t = Array.sub t.events 0 t.len

let iter f t =
  for i = 0 to t.len - 1 do
    f t.events.(i)
  done

let clear t =
  t.len <- 0;
  t.dropped <- 0
