let meta_json meta =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (Json.escape k) (Json.escape v))
         meta)
  ^ "}"

let write ~schema ~version ~counts ~meta records =
  let buffer = Buffer.create 4096 in
  Printf.bprintf buffer "{\"schema\":\"%s\",\"version\":%d" schema version;
  List.iter (fun (key, n) -> Printf.bprintf buffer ",\"%s\":%d" key n) counts;
  Printf.bprintf buffer ",\"meta\":%s}\n" (meta_json meta);
  Seq.iter
    (fun record ->
      Buffer.add_string buffer record;
      Buffer.add_char buffer '\n')
    records;
  let body = Buffer.contents buffer in
  body ^ Safe_io.jsonl_trailer body

(* -- reading ------------------------------------------------------------ *)

let int json key ~default =
  match Json.member json key with
  | Some (Json.Num v) -> int_of_float v
  | _ -> default

let num json key ~default =
  match Json.member json key with Some (Json.Num v) -> v | _ -> default

let str json key ~default =
  match Json.member json key with Some (Json.Str s) -> s | _ -> default

type 'a doc = {
  header : Json.t;
  meta : (string * string) list;
  records : 'a list;
}

(* 1-based line numbers survive the blank-line filter, so every message
   points at the line an editor would show *)
let numbered_lines text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter (fun (_, line) -> String.trim line <> "")

let family_of schema =
  let prefix = "ddsim-" in
  let n = String.length prefix in
  if String.length schema > n && String.sub schema 0 n = prefix then
    String.sub schema n (String.length schema - n)
  else schema

let read ~schema ~version ~record text =
  let fail line fmt =
    Printf.ksprintf
      (fun message ->
        failwith (Printf.sprintf "%s:%d: %s" (family_of schema) line message))
      fmt
  in
  match numbered_lines text with
  | [] -> fail 1 "empty file"
  | (header_line, header_text) :: rest ->
    let header =
      try Json.parse header_text
      with Failure message -> fail header_line "%s" message
    in
    (match Json.member header "schema" with
    | Some (Json.Str s) when s = schema -> ()
    | Some (Json.Str s) -> fail header_line "unexpected schema %S" s
    | _ -> fail header_line "header line is missing \"schema\"");
    (match Json.member header "version" with
    | Some (Json.Num v) when int_of_float v = version -> ()
    | Some (Json.Num v) ->
      fail header_line "unsupported schema version %d (current is %d)"
        (int_of_float v) version
    | _ -> fail header_line "header line is missing \"version\"");
    (* the trailer is the last non-blank line; it never is the header,
       which carries a schema *)
    let last_line, records =
      match List.rev rest with
      | (line, _) :: records -> (line, List.rev records)
      | [] -> (header_line, [])
    in
    let body, trailer = Safe_io.split_jsonl_trailer text in
    (match trailer with
    | None -> fail last_line "missing checksum trailer (file truncated?)"
    | Some expected when Safe_io.checksum body <> expected ->
      fail last_line "checksum mismatch (file truncated or corrupted)"
    | Some _ -> ());
    let meta =
      match Json.member header "meta" with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> match v with Json.Str s -> Some (k, s) | _ -> None)
          fields
      | _ -> []
    in
    let records =
      List.map
        (fun (line, text) ->
          try record (Json.parse text)
          with Failure message -> fail line "%s" message)
        records
    in
    { header; meta; records }

let schema_of text =
  match numbered_lines text with
  | [] -> None
  | (_, line) :: _ -> (
    match Json.member (Json.parse line) "schema" with
    | Some (Json.Str s) -> Some s
    | _ -> None
    | exception Failure _ -> None)
