(* The repository's benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
       runs one workload in this process and prints, as its last line,
       {"correct", "attempted", "failed", "metrics"}: the end-to-end
       metrics with --trace 0, the per-layer metrics with --trace 1.
     main.exe [--seed N] [--trace 0|1] [--out FILE]
       runs every workload, each in a freshly exec'd child process, and
       appends the run (with its provenance) as one line to FILE.
     main.exe --smoke
       the same on shrunken workloads, then checks that every metric
       BENCHMARK.json names was produced.
     main.exe compare A B
       judges the runs in result file B against those in A with the
       bounds of BENCHMARK.json.

   Load model: one client, closed loop.  Every repetition is a fresh
   [Engine.create] followed by a timed [Engine.run]; the next starts when
   the previous one has been checked. *)

open Dd_sim

let now = Unix.gettimeofday

(* ---- JSON output ---- *)

let num v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let str s = "\"" ^ Obs.Json.escape s ^ "\""

let obj fields =
  "{"
  ^ String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat ", " items ^ "]"

let metrics_json ms =
  obj
    (List.map
       (fun (n, v, u) -> (n, obj [ ("value", num v); ("unit", str u) ]))
       ms)

(* ---- one workload, in this process ---- *)

(* set-ups per run, whose median is setup_s *)
let setups = 15

(* timed repetitions a run makes even when --seconds has already passed *)
let min_reps = 3

(* One untimed run that fills the caches and fixes the node count every
   timed repetition must reproduce. *)
let warm_up w input reference =
  let e = Workload.engine input in
  match
    Workload.simulate w e input;
    Workload.check reference e
  with
  | Ok () -> Ok (Engine.state_node_count e)
  | Error m -> Error ("warm-up: " ^ m)
  | exception ex -> Error ("warm-up raised " ^ Printexc.to_string ex)

(* One timed repetition, checked after the clock stops; [final_nodes] is
   [None] when the warm-up failed. *)
let repetition w input reference ~final_nodes =
  (* the previous repetition's garbage is not this one's cost *)
  Gc.full_major ();
  let e = Workload.engine input in
  let t0 = now () in
  Workload.simulate w e input;
  let dt = now () -. t0 in
  let nodes = Engine.state_node_count e in
  match (Workload.check reference e, final_nodes) with
  | Error m, _ -> Error m
  | Ok (), Some warm when nodes <> warm ->
    Error
      (Printf.sprintf "final state has %d nodes, the warm-up had %d" nodes
         warm)
  | Ok (), _ -> Ok dt

(* Set-up is generating the input and creating its engine.  It is timed
   first thing in the process, where the allocator's state is the same on
   every run; set-ups between repetitions flip between reusing freed memory
   and faulting in fresh pages (3 or 8 ms), run by run. *)
let setup_seconds w ~smoke ~seed =
  List.init setups (fun _ ->
      Gc.full_major ();
      let t0 = now () in
      let e = Workload.engine (Workload.input w ~smoke ~seed) in
      let dt = now () -. t0 in
      ignore (Sys.opaque_identity e);
      dt)
  |> Compare.median

let run_workload (w : Workload.t) ~smoke ~seed ~seconds ~trace =
  let setup_s = setup_seconds w ~smoke ~seed in
  let input = Workload.input w ~smoke ~seed in
  let reference = Workload.reference w ~smoke ~seed input in
  let errors = ref [] in
  let final_nodes =
    match warm_up w input reference with
    | Ok nodes -> Some nodes
    | Error m ->
      errors := [ m ];
      None
  in
  let times = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let t_start = now () in
  while !attempted < min_reps || now () -. t_start < seconds do
    incr attempted;
    match repetition w input reference ~final_nodes with
    | Ok dt -> times := dt :: !times
    | Error m ->
      incr failed;
      errors := m :: !errors
    | exception ex ->
      incr failed;
      errors := ("raised " ^ Printexc.to_string ex) :: !errors
  done;
  let heap_peak_mb =
    Float.of_int ((Gc.quick_stat ()).top_heap_words * 8) /. 1048576.
  in
  let q1, p50, q3 =
    if !times = [] then (0., 0., 0.) else Compare.quartiles !times
  in
  let e2e =
    [
      ("run_s_p50", p50, "s");
      ("setup_s", setup_s, "s");
      ("heap_peak_mb", heap_peak_mb, "MB");
    ]
  in
  let layers, overhead =
    match final_nodes with
    | Some final_nodes when trace -> (
      match Layers.measure w input reference ~final_nodes with
      | r ->
        errors := List.rev_append r.failures !errors;
        let overhead = r.wall /. p50 in
        ( r.metrics @ [ ("trace_overhead", overhead, "ratio") ],
          Printf.sprintf ", trace_overhead %.3f" overhead )
      | exception ex ->
        errors := ("traced run raised " ^ Printexc.to_string ex) :: !errors;
        ([], ""))
    | _ -> ([], "")
  in
  let errors = List.rev !errors in
  let correct = errors = [] in
  List.iter (fun m -> Printf.eprintf "%s: %s\n" w.name m) errors;
  Printf.printf
    "# %s seed %d: %d reps (%d failed), run_s p50 %.4f q1 %.4f q3 %.4f, \
     setup_s %.5f, heap_peak_mb %.1f%s\n"
    w.name seed !attempted !failed p50 q1 q3 setup_s heap_peak_mb overhead;
  let counts =
    [
      ("correct", string_of_bool correct);
      ("attempted", string_of_int !attempted);
      ("failed", string_of_int !failed);
    ]
  in
  print_endline
    ("record "
    ^ obj
        ([ ("workload", str w.name); ("seed", string_of_int seed) ]
        @ counts
        @ [
            ("errors", arr (List.map str errors));
            ( "run_s",
              obj
                [
                  ("q1", num q1);
                  ("p50", num p50);
                  ("q3", num q3);
                  ("n", string_of_int (List.length !times));
                ] );
            ("metrics", metrics_json e2e);
            ("layers", metrics_json layers);
          ]));
  print_endline
    (obj
       (counts @ [ ("metrics", metrics_json (if trace then layers else e2e)) ]))

(* ---- every workload, one child process each ---- *)

let commit () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    try
      let ic =
        Unix.open_process_args_in "git"
          [| "git"; "--git-dir=.git"; "rev-parse"; "HEAD" |]
      in
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some sha -> String.trim sha
      | _ -> "unknown"
    with _ -> "unknown"

(* Runs one workload in a fresh process; its human lines are echoed and
   its record returned unparsed. *)
let child name ~smoke ~seed ~seconds ~trace =
  let args =
    [ Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed ]
    @ [ "--seconds"; Printf.sprintf "%g" seconds ]
    @ [ "--trace"; (if trace then "1" else "0") ]
    @ if smoke then [ "--smoke" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let lines = In_channel.input_lines ic in
  let status = Unix.close_process_in ic in
  List.iter
    (fun l -> if String.starts_with ~prefix:"# " l then print_endline l)
    lines;
  flush stdout;
  let record =
    List.find_map
      (fun l ->
        if String.starts_with ~prefix:"record " l then
          Some (String.sub l 7 (String.length l - 7))
        else None)
      lines
  in
  match (status, record) with
  | Unix.WEXITED 0, Some r -> Ok r
  | _ -> Error (Printf.sprintf "%s: child process failed" name)

let workload_name r =
  Obs.Json.to_str (Option.get (Obs.Json.member r "workload"))

let field_int json key =
  Option.fold ~none:0 ~some:Obs.Json.to_int (Obs.Json.member json key)

(* Metric names BENCHMARK.json declares under [section]. *)
let declared benchmark section =
  let json = Obs.Json.parse (Compare.read_file benchmark) in
  Option.fold ~none:[] ~some:Obs.Json.to_list (Obs.Json.member json section)
  |> List.map (fun m -> Obs.Json.to_str (Option.get (Obs.Json.member m "name")))

(* What is wrong with one workload's record: failed checks and, in the
   smoke test, every declared metric it did not produce. *)
let problems ~smoke ~trace ~benchmark r =
  let name = workload_name r in
  let missing section key =
    let have =
      match Obs.Json.member r key with
      | Some (Obs.Json.Obj fields) -> List.map fst fields
      | _ -> []
    in
    List.filter (fun m -> not (List.mem m have)) (declared benchmark section)
    |> List.map (Printf.sprintf "%s: %s metric %s missing" name section)
  in
  (if Obs.Json.member r "correct" = Some (Obs.Json.Bool true) then []
   else
     [
       Printf.sprintf "%s: incorrect (%d of %d repetitions failed)" name
         (field_int r "failed") (field_int r "attempted");
     ])
  @ (if smoke then missing "end_to_end" "metrics" else [])
  @ if smoke && trace then missing "per_layer" "layers" else []

let run_all ~smoke ~seed ~seconds ~trace ~out ~benchmark =
  let results =
    List.map
      (fun (w : Workload.t) -> child w.name ~smoke ~seed ~seconds ~trace)
      Workload.all
  in
  let records = List.filter_map Result.to_option results in
  let parsed = List.map Obs.Json.parse records in
  let problems =
    List.filter_map (function Error m -> Some m | Ok _ -> None) results
    @ List.concat_map (problems ~smoke ~trace ~benchmark) parsed
  in
  Option.iter
    (fun path ->
      let provenance =
        obj
          [
            ("commit", str (commit ()));
            ("ocaml", str Sys.ocaml_version);
            ( "recommended_domains",
              string_of_int (Domain.recommended_domain_count ()) );
            ("seed", string_of_int seed);
            ("seconds", num seconds);
            ("trace", string_of_bool trace);
            ("smoke", string_of_bool smoke);
            ( "reps",
              obj
                (List.map
                   (fun r ->
                     (workload_name r, string_of_int (field_int r "attempted")))
                   parsed) );
          ]
      in
      Out_channel.with_open_gen
        [ Open_append; Open_creat; Open_text ]
        0o644 path
        (fun oc ->
          output_string oc
            (obj [ ("provenance", provenance); ("workloads", arr records) ]);
          output_char oc '\n'))
    out;
  List.iter prerr_endline problems;
  if problems = [] then begin
    print_endline (if smoke then "smoke: ok" else "all workloads correct");
    0
  end
  else 1

(* ---- command line ---- *)

let bench_seconds benchmark =
  let json = Obs.Json.parse (Compare.read_file benchmark) in
  match Obs.Json.member json "run_seconds" with
  | Some v -> Obs.Json.to_num v
  | None -> failwith (benchmark ^ ": no run_seconds")

let usage =
  "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
   [--out FILE] [--smoke]\n\
   main.exe compare A.jsonl B.jsonl"

let () =
  match Array.to_list Sys.argv with
  | [ _; "compare"; a; b ] -> exit (Compare.run a b)
  | _ :: "compare" :: _ ->
    prerr_endline usage;
    exit 3
  | _ -> (
    let workload = ref "all" and seed = ref 2019 and seconds = ref nan in
    let trace = ref false and smoke = ref false and out = ref None in
    let benchmark = ref "BENCHMARK.json" in
    let specs =
      [
        ( "--workload",
          Arg.Set_string workload,
          "NAME  one workload in this process, or all (default)" );
        ("--seed", Arg.Set_int seed, "N  input seed (default 2019)");
        ( "--seconds",
          Arg.Set_float seconds,
          "S  timed seconds per workload (default: run_seconds)" );
        ( "--trace",
          Arg.Symbol ([ "0"; "1" ], fun v -> trace := v = "1"),
          "  1: also run each workload once under the per-layer trace" );
        ( "--smoke",
          Arg.Set smoke,
          " shrunken workloads, traced, checked against BENCHMARK.json" );
        ( "--out",
          Arg.String (fun f -> out := Some f),
          "FILE  append the full run to this result file" );
        ( "--benchmark",
          Arg.Set_string benchmark,
          "FILE  benchmark definition (default BENCHMARK.json)" );
      ]
    in
    Arg.parse specs
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      usage;
    let smoke = !smoke and seed = !seed in
    let trace = !trace || smoke in
    let seconds =
      if smoke then 0.
      else if Float.is_nan !seconds then bench_seconds !benchmark
      else !seconds
    in
    if !workload = "all" then
      exit
        (run_all ~smoke ~seed ~seconds ~trace ~out:!out ~benchmark:!benchmark)
    else
      match Workload.find !workload with
      | Some w -> run_workload w ~smoke ~seed ~seconds ~trace
      | None ->
        Printf.eprintf "unknown workload %s\n" !workload;
        exit 2)
