(* Quartiles, and the regression verdict between two sets of full runs. *)

(* Quartiles as Python's [statistics.quantiles (data, n=4)] gives them
   (the "exclusive" method), so these numbers match any external check. *)
let quartiles values =
  let data = List.sort compare values |> Array.of_list in
  let len = Array.length data in
  if len = 0 then invalid_arg "Compare.quartiles: no values";
  if len = 1 then (data.(0), data.(0), data.(0))
  else
    let q i =
      let m = len + 1 in
      let j = max 1 (min (len - 1) (i * m / 4)) in
      let delta = Float.of_int ((i * m) - (j * 4)) in
      ((data.(j - 1) *. (4. -. delta)) +. (data.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median values =
  let _, m, _ = quartiles values in
  m

type bound = { metric : string; better_lower : bool; bound : float }

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The end-to-end metrics and their bounds, from BENCHMARK.json. *)
let bounds benchmark =
  let json = Obs.Json.parse (read_file benchmark) in
  let field j k =
    match Obs.Json.member j k with
    | Some v -> v
    | None -> failwith (Printf.sprintf "%s: missing %S" benchmark k)
  in
  List.map
    (fun m ->
      {
        metric = Obs.Json.to_str (field m "name");
        better_lower = Obs.Json.to_str (field m "better") = "lower";
        bound = Obs.Json.to_num (field m "bound");
      })
    (Obs.Json.to_list (field json "end_to_end"))

(* A result file holds one full run per line; a set is every run in it. *)
type set = {
  values : (string * string, float list) Hashtbl.t;
      (** (workload, metric) -> values across the set's runs *)
  failures : (string, int) Hashtbl.t;
      (** workload -> failed repetitions, plus runs not marked correct *)
  identities : string list;  (** distinct "seed N, S s" of the set's runs *)
}

let load_set path =
  let set =
    { values = Hashtbl.create 32; failures = Hashtbl.create 8; identities = [] }
  in
  let field = Obs.Json.member in
  let get conv ~none j k = Option.fold ~none ~some:conv (field j k) in
  let add_workload w =
    let name = get Obs.Json.to_str ~none:"?" w "workload" in
    let failed =
      get Obs.Json.to_int ~none:0 w "failed"
      + if field w "correct" = Some (Obs.Json.Bool true) then 0 else 1
    in
    Hashtbl.replace set.failures name
      (failed + Option.value ~default:0 (Hashtbl.find_opt set.failures name));
    match field w "metrics" with
    | Some (Obs.Json.Obj metrics) ->
      List.iter
        (fun (metric, m) ->
          match field m "value" with
          | Some (Obs.Json.Num v) ->
            let key = (name, metric) in
            Hashtbl.replace set.values key
              (v :: Option.value ~default:[] (Hashtbl.find_opt set.values key))
          | _ -> ())
        metrics
    | _ -> ()
  in
  let add_run identities line =
    let run = Obs.Json.parse line in
    List.iter add_workload (get Obs.Json.to_list ~none:[] run "workloads");
    let identity =
      match field run "provenance" with
      | Some p ->
        Printf.sprintf "seed %g, %g s"
          (get Obs.Json.to_num ~none:nan p "seed")
          (get Obs.Json.to_num ~none:nan p "seconds")
      | None -> "no provenance"
    in
    if List.mem identity identities then identities
    else identities @ [ identity ]
  in
  let identities =
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
    |> List.fold_left add_run []
  in
  { set with identities }

type verdict = Pass | Regressed | Unresolved

let verdict_name = function
  | Pass -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* [b] against baseline [a]: unresolved when either set's IQR, as a share
   of its median, is wider than the bound; regressed when [b]'s median is
   worse than [a]'s by more than the bound. *)
let judge { better_lower; bound; _ } a b =
  let spread vs =
    let q1, m, q3 = quartiles vs in
    if m = 0. then 0. else (q3 -. q1) /. Float.abs m
  in
  let ma = median a and mb = median b in
  let worse =
    if better_lower then mb > ma *. (1. +. bound) else mb < ma *. (1. -. bound)
  in
  if spread a > bound || spread b > bound then Unresolved
  else if worse then Regressed
  else Pass

(* One row per (workload, metric) with its verdict; a pair missing from
   either set counts as regressed. *)
let judge_metric ~a_path ~b_path a b w bd =
  let key = (w, bd.metric) in
  match (Hashtbl.find_opt a.values key, Hashtbl.find_opt b.values key) with
  | Some va, Some vb ->
    let v = judge bd va vb in
    let ma = median va and mb = median vb in
    Printf.printf "%-16s %-14s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n" w
      bd.metric ma mb
      (if ma = 0. then 0. else 100. *. (mb -. ma) /. ma)
      (100. *. bd.bound) (verdict_name v);
    v
  | _ ->
    Printf.printf "%-16s %-14s missing in %s\n" w bd.metric
      (if Hashtbl.mem a.values key then b_path else a_path);
    Regressed

(* One row per workload: B may not fail more often than A. *)
let judge_failures a b w =
  let failures s = Option.value ~default:0 (Hashtbl.find_opt s.failures w) in
  let fa = failures a and fb = failures b in
  let v = if fb > fa then Regressed else Pass in
  Printf.printf "%-16s %-14s %12d %12d %8s %7s  %s\n" w "failed" fa fb "" ""
    (verdict_name v);
  v

(* Judges result file [b_path] against [a_path] with the bounds of
   BENCHMARK.json.  Exit status 0 when every row is ok, 1 when any
   regressed, 2 when some are unresolved, 3 when the two sets were not all
   run with one seed and one run length. *)
let run a_path b_path =
  let bounds = bounds "BENCHMARK.json" in
  let a = load_set a_path and b = load_set b_path in
  match List.sort_uniq compare (a.identities @ b.identities) with
  | _ :: _ :: _ ->
    Printf.printf "not comparable: %s has %s; %s has %s\n" a_path
      (String.concat " and " a.identities)
      b_path
      (String.concat " and " b.identities);
    3
  | _ ->
    let workloads =
      Hashtbl.fold (fun w _ acc -> w :: acc) a.failures []
      |> Hashtbl.fold (fun w _ acc -> w :: acc) b.failures
      |> List.sort_uniq compare
    in
    Printf.printf "%-16s %-14s %12s %12s %8s %7s  %s\n" "workload" "metric"
      "A median" "B median" "change" "bound" "verdict";
    let verdicts =
      List.concat_map
        (fun w ->
          let failed = judge_failures a b w in
          failed :: List.map (judge_metric ~a_path ~b_path a b w) bounds)
        workloads
    in
    if List.mem Regressed verdicts then 1
    else if List.mem Unresolved verdicts then 2
    else 0
