(* FNV-1a 64-bit: endian-free, dependency-free, and one multiply per
   byte — integrity against truncation and bit rot, not an adversary. *)
let checksum text =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    text;
  Printf.sprintf "%016Lx" !h

let corrupt contents =
  let contents =
    if Fault.fire Fault.Io_truncate then
      String.sub contents 0 (String.length contents / 2)
    else contents
  in
  if Fault.fire Fault.Io_garble && String.length contents > 0 then begin
    let bytes = Bytes.of_string contents in
    let i = Bytes.length bytes / 2 in
    Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor 0x20));
    Bytes.to_string bytes
  end
  else contents

let write_file path contents =
  let contents = corrupt contents in
  let temporary = path ^ ".tmp" in
  let oc = open_out temporary in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc contents;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename temporary path

let jsonl_trailer body =
  Printf.sprintf "{\"checksum\":\"%s\"}\n" (checksum body)

(* the trailer sits on the last non-empty line; the body handed back
   must be byte-exact (including its final newline) because it is the
   checksummed text *)
let split_last_line text =
  let stop = ref (String.length text) in
  while !stop > 0 && text.[!stop - 1] = '\n' do
    decr stop
  done;
  if !stop = 0 then None
  else
    match String.rindex_from_opt text (!stop - 1) '\n' with
    | None -> None
    | Some i -> Some (String.sub text 0 (i + 1), String.sub text (i + 1) (!stop - i - 1))

let strip_prefix ~prefix line =
  let n = String.length prefix in
  if String.length line > n && String.sub line 0 n = prefix then
    Some (String.sub line n (String.length line - n))
  else None

let split_jsonl_trailer text =
  match split_last_line text with
  | Some (body, line) -> (
    match strip_prefix ~prefix:"{\"checksum\":\"" line with
    | Some rest when String.length rest >= 18 && String.sub rest 16 2 = "\"}"
      ->
      (body, Some (String.sub rest 0 16))
    | _ -> (text, None))
  | None -> (text, None)
