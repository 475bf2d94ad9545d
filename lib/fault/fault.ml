type point =
  | Weight_flip
  | Table_poison
  | Table_skip_sweep
  | Unique_drop
  | Forced_gc
  | Alloc_fail
  | Io_truncate
  | Io_garble
  | Clock_skew

type trigger = Always | After of int | Probability of float

type slot = {
  spoint : point;
  trigger : trigger;
  mutable probes : int;  (* fire () calls for this point under this plan *)
  mutable fired : int;
}

type plan = { slots : slot list; mutable rng : int64 }

(* one global cell: the disarmed probe is a load and a branch *)
let state : plan option ref = ref None

let armed () = Option.is_some !state

let arm ?(seed = 0) points =
  let slots =
    List.map
      (fun (spoint, trigger) ->
        (match trigger with
        | After n when n < 1 ->
          invalid_arg "Fault.arm: After n needs n >= 1"
        | Probability p when not (p >= 0. && p <= 1.) ->
          invalid_arg "Fault.arm: Probability p needs p in [0, 1]"
        | _ -> ());
        { spoint; trigger; probes = 0; fired = 0 })
      points
  in
  (* golden-ratio offset keeps seed 0 from being the all-zero state *)
  state :=
    Some
      {
        slots;
        rng = Int64.add (Int64.of_int seed) 0x9E3779B97F4A7C15L;
      }

let disarm () = state := None

(* splitmix64: deterministic, stateless-per-step, good enough to spread a
   probability trigger over a run *)
let next_unit plan =
  let open Int64 in
  plan.rng <- add plan.rng 0x9E3779B97F4A7C15L;
  let z = plan.rng in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = logxor z (shift_right_logical z 31) in
  to_float (shift_right_logical z 11) /. 9007199254740992.

let fire point =
  match !state with
  | None -> false
  | Some plan -> (
    match List.find_opt (fun s -> s.spoint = point) plan.slots with
    | None -> false
    | Some slot ->
      slot.probes <- slot.probes + 1;
      let hit =
        match slot.trigger with
        | Always -> true
        | After n -> slot.probes = n
        | Probability p -> next_unit plan < p
      in
      if hit then slot.fired <- slot.fired + 1;
      hit)

let fired_count point =
  match !state with
  | None -> 0
  | Some plan -> (
    match List.find_opt (fun s -> s.spoint = point) plan.slots with
    | None -> 0
    | Some slot -> slot.fired)

let flip_float ?(bit = 51) x =
  if bit < 0 || bit > 51 then invalid_arg "Fault.flip_float: bit in [0, 51]";
  Int64.float_of_bits
    (Int64.logxor (Int64.bits_of_float x) (Int64.shift_left 1L bit))
