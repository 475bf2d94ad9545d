type tolerances = {
  time_ratio : float;
  count_ratio : float;
  rate_tol : float;
}

let default = { time_ratio = 10.; count_ratio = 0.1; rate_tol = 0.15 }

type severity = Regression | Note

type finding = { severity : severity; path : string; message : string }

(* -- metric classification ------------------------------------------- *)

type metric_class = Time | Rate | Count | Informational

let contains_sub text sub =
  let n = String.length text and m = String.length sub in
  let rec loop i = i + m <= n && (String.sub text i m = sub || loop (i + 1)) in
  loop 0

let ends_with text suffix =
  let n = String.length text and m = String.length suffix in
  n >= m && String.sub text (n - m) m = suffix

let starts_with text prefix =
  let n = String.length text and m = String.length prefix in
  n >= m && String.sub text 0 m = prefix

(* The informational check must come first: ledger-derived timing columns
   (attributed seconds, wall-clock coverage) are scheduling-dependent, and
   a "ledger_mat_vec_seconds" leaf would otherwise classify as Time.  The
   deterministic ledger columns (windows, fallbacks) stay Count. *)
let classify name =
  if
    starts_with name "ledger_"
    && (contains_sub name "seconds" || contains_sub name "coverage")
  then Informational
  else if contains_sub name "seconds" || contains_sub name "time" then Time
  else if ends_with name "_rate" then Rate
  else Count

(* -- identity-keyed array pairing ------------------------------------ *)

let identity_keys =
  [ "name"; "benchmark"; "circuit"; "mode"; "strategy"; "reorder" ]

(* "reorder" joined the identity after baselines without the field were
   already committed; a missing key means "off".  The default value is
   dropped from the identity string, so an explicit reorder:"off"
   candidate still pairs with an older baseline, while any other value
   forms a distinct run. *)
let identity_part key value =
  match key with "reorder" when value = "off" -> None | _ -> Some value

let identity_of = function
  | Json.Obj _ as obj ->
    let parts =
      List.filter_map
        (fun key ->
          match Json.member obj key with
          | Some (Json.Str s) -> identity_part key s
          | _ -> None)
        identity_keys
    in
    if parts = [] then None else Some (String.concat "/" parts)
  | _ -> None

(* -- the walk -------------------------------------------------------- *)

let compare_docs ?(tol = default) ~baseline candidate =
  let findings = ref [] in
  let push severity path message =
    findings := { severity; path; message } :: !findings
  in
  let leaf_name path =
    match String.rindex_opt path '.' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  let compare_numbers path base value =
    match classify (leaf_name path) with
    | Time ->
      (* only slower is a regression; a small absolute floor keeps
         microsecond-scale smoke timings from tripping the ratio *)
      if value > (base *. tol.time_ratio) +. 0.1 then
        push Regression path
          (Printf.sprintf "time regressed: %.6f -> %.6f (> %.1fx budget)"
             base value tol.time_ratio)
    | Rate ->
      if Float.abs (value -. base) > tol.rate_tol then
        push Regression path
          (Printf.sprintf "rate moved: %.6f -> %.6f (tolerance %.3f)" base
             value tol.rate_tol)
    | Count ->
      let budget = tol.count_ratio *. Float.max (Float.abs base) 1. in
      if Float.abs (value -. base) > budget then
        push Regression path
          (Printf.sprintf "count moved: %g -> %g (tolerance %.0f%% of %g)"
             base value (tol.count_ratio *. 100.) base)
    | Informational ->
      (* nondeterministic by nature: never gated, never even noted *)
      ()
  in
  let rec walk path baseline candidate =
    match (baseline, candidate) with
    | Json.Obj base_fields, Json.Obj _ ->
      List.iter
        (fun (key, base_value) ->
          let child = path ^ "." ^ key in
          match Json.member candidate key with
          | None -> push Regression child "metric missing from candidate"
          | Some candidate_value -> walk child base_value candidate_value)
        base_fields;
      (match candidate with
      | Json.Obj candidate_fields ->
        List.iter
          (fun (key, _) ->
            if Json.member baseline key = None then
              push Note (path ^ "." ^ key) "new metric (not in baseline)")
          candidate_fields
      | _ -> ())
    | Json.Num base, Json.Num value -> compare_numbers path base value
    | Json.Str base, Json.Str value ->
      if base <> value then
        push Regression path
          (Printf.sprintf "value changed: %S -> %S" base value)
    | Json.Bool base, Json.Bool value ->
      if base <> value then
        push Regression path
          (Printf.sprintf "value changed: %b -> %b" base value)
    | Json.Null, Json.Null -> ()
    | Json.Arr base_items, Json.Arr candidate_items ->
      if List.for_all (fun item -> identity_of item <> None) base_items
         && base_items <> []
      then begin
        List.iter
          (fun base_item ->
            match identity_of base_item with
            | None -> ()
            | Some id -> (
              let child = Printf.sprintf "%s[%s]" path id in
              match
                List.find_opt
                  (fun candidate_item ->
                    identity_of candidate_item = Some id)
                  candidate_items
              with
              | None -> push Regression child "run missing from candidate"
              | Some candidate_item -> walk child base_item candidate_item))
          base_items;
        List.iter
          (fun candidate_item ->
            match identity_of candidate_item with
            | Some id
              when not
                     (List.exists
                        (fun base_item -> identity_of base_item = Some id)
                        base_items) ->
              push Note
                (Printf.sprintf "%s[%s]" path id)
                "new run (not in baseline)"
            | _ -> ())
          candidate_items
      end
      (* arrays without identity (trajectories, weight histograms) are
         data, not metrics: not compared element-wise *)
    | _ ->
      push Regression path "value kind changed between baseline and candidate"
  in
  walk "$" baseline candidate;
  let ordered = List.rev !findings in
  List.filter (fun f -> f.severity = Regression) ordered
  @ List.filter (fun f -> f.severity = Note) ordered

let compare_strings ?tol ~baseline candidate =
  match (Json.parse baseline, Json.parse candidate) with
  | baseline, candidate -> compare_docs ?tol ~baseline candidate
  | exception Failure message ->
    [ { severity = Regression; path = "$"; message } ]

let regressed findings =
  List.exists (fun f -> f.severity = Regression) findings

let render findings =
  let buffer = Buffer.create 1024 in
  let regressions =
    List.filter (fun f -> f.severity = Regression) findings
  in
  let notes = List.filter (fun f -> f.severity = Note) findings in
  List.iter
    (fun f ->
      Buffer.add_string buffer
        (Printf.sprintf "REGRESSION %s: %s\n" f.path f.message))
    regressions;
  List.iter
    (fun f ->
      Buffer.add_string buffer
        (Printf.sprintf "note       %s: %s\n" f.path f.message))
    notes;
  Buffer.add_string buffer
    (if regressions = [] then
       Printf.sprintf "bench-check OK (%d notes)\n" (List.length notes)
     else
       Printf.sprintf "bench-check FAILED: %d regressions (%d notes)\n"
         (List.length regressions) (List.length notes));
  Buffer.contents buffer
