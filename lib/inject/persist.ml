exception Format_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Format_error msg)) fmt

(* ------------------------------------------------------------------ *)
(* CRC32 (IEEE 802.3, reflected), slicing-by-8.                          *)

(* Eight 256-entry tables in one array: table 0 is the classic
   byte-at-a-time table, and table k advances a byte's contribution past
   k more zero bytes, so eight bytes fold into the CRC with eight lookups
   and no dependency between them. *)
let crc_tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

(* Hot path: every checkpoint, cached profile and adaptive round record
   is checksummed in full, and a round record of ir.cg is 265 KB. Each
   8-byte step reads two little-endian 32-bit words and looks up all
   eight bytes at once, about 3.4x the byte-at-a-time loop; the tail
   goes byte by byte. Table indices are in range by construction. *)
let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Persist.crc32_sub";
  let t = Lazy.force crc_tables in
  let tab k i = Array.unsafe_get t ((k * 256) + i) in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let words_end = pos + (len land lnot 7) in
  while !i < words_end do
    let lo = !c lxor (Int32.to_int (String.get_int32_le s !i) land 0xFFFFFFFF) in
    let hi = Int32.to_int (String.get_int32_le s (!i + 4)) land 0xFFFFFFFF in
    c :=
      tab 7 (lo land 0xFF)
      lxor tab 6 ((lo lsr 8) land 0xFF)
      lxor tab 5 ((lo lsr 16) land 0xFF)
      lxor tab 4 (lo lsr 24)
      lxor tab 3 (hi land 0xFF)
      lxor tab 2 ((hi lsr 8) land 0xFF)
      lxor tab 1 ((hi lsr 16) land 0xFF)
      lxor tab 0 (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c := tab 0 ((!c lxor Char.code (String.unsafe_get s j)) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

(* All writes go through a temp-file + atomic rename so a killed process can
   never leave a truncated campaign or samples file behind: readers see
   either the previous complete file or the new complete file. The temp
   file is unlinked in a finaliser, so no failure mode between its creation
   and the rename — including a failing [close_out] or [Sys.rename] — can
   leak it; after a successful rename the unlink is a no-op. *)
let with_out_atomic path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      (match f oc with
      | () -> close_out oc
      | exception e ->
          close_out_noerr oc;
          raise e);
      Sys.rename tmp path)

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* ------------------------------------------------------------------ *)
(* Integrity envelope: a checksummed, versioned wrapper around a whole
   durable artifact. The first line declares the payload length and its
   CRC32, so a torn write (rename survived, data did not), a truncation,
   or any flipped byte is detected before a single payload byte is
   trusted. Bytes without the header are refused, naming the format they
   announce instead. *)

let envelope_magic = "ftb-envelope-v1"

let save_enveloped ~path f =
  let buf = Buffer.create 4096 in
  f buf;
  let payload = Buffer.contents buf in
  with_out_atomic path (fun oc ->
      Printf.fprintf oc "%s %d %08x\n" envelope_magic (String.length payload)
        (crc32 payload);
      output_string oc payload)

let read_file path =
  let ic =
    try open_in_bin path with Sys_error msg -> fail "%s: cannot open: %s" path msg
  in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let first_word s ~from =
  let stop = ref from in
  while !stop < String.length s && !stop - from < 64 && s.[!stop] <> ' ' && s.[!stop] <> '\n' do
    incr stop
  done;
  String.sub s from (!stop - from)

let format_token contents =
  let token = first_word contents ~from:0 in
  match String.index_opt contents '\n' with
  | Some nl when token = envelope_magic -> first_word contents ~from:(nl + 1)
  | Some _ | None -> token

let load_enveloped ~path =
  let contents = read_file path in
  let nl =
    match String.index_opt contents '\n' with
    | Some nl -> nl
    | None -> String.length contents
  in
  let header = String.sub contents 0 nl in
  match String.split_on_char ' ' header with
  | [ magic; length; crc ] when magic = envelope_magic ->
      let declared_length =
        match int_of_string_opt length with
        | Some n when n >= 0 -> n
        | Some _ | None -> fail "%s:1: bad envelope payload length %S" path length
      in
      let declared_crc =
        match int_of_string_opt ("0x" ^ crc) with
        | Some c -> c
        | None -> fail "%s:1: bad envelope checksum %S" path crc
      in
      let payload_length = String.length contents - nl - 1 in
      if payload_length <> declared_length then
        fail "%s: torn or truncated artifact (%d payload bytes, envelope declares %d)"
          path payload_length declared_length;
      let payload = String.sub contents (nl + 1) payload_length in
      let actual = crc32 payload in
      if actual <> declared_crc then
        fail "%s: checksum mismatch (stored %08x, computed %08x) — artifact is corrupt"
          path declared_crc actual;
      payload
  | magic :: _ when magic = envelope_magic ->
      fail "%s:1: malformed envelope header %S" path header
  | _ ->
      fail "%s: unsupported format %S (no %s header)" path (format_token contents)
        envelope_magic

(* Corrupt artifacts are preserved for post-mortem instead of deleted:
   they move into a [quarantine/] sibling directory, freeing the original
   path for a rebuilt artifact. Quarantine never throws — failing to
   preserve evidence must not block recovery. *)
let quarantine ~path =
  if not (Sys.file_exists path) then None
  else begin
    let dir = Filename.concat (Filename.dirname path) "quarantine" in
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
    let base = Filename.basename path in
    let rec candidate n =
      let dest =
        if n = 0 then Filename.concat dir base
        else Filename.concat dir (Printf.sprintf "%s.%d" base n)
      in
      if Sys.file_exists dest && n < 10_000 then candidate (n + 1) else dest
    in
    let dest = candidate 0 in
    match Sys.rename path dest with
    | () -> Some dest
    | exception Sys_error _ -> None
  end


let load_or_quarantine ~path load =
  if not (Sys.file_exists path) then None
  else
    match load path with
    | v -> Some v
    | exception (Format_error _ | Sys_error _) ->
        ignore (quarantine ~path : string option);
        None

let int_field ~path what s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> fail "%s: bad %s field %S" path what s

let float_field ~path what s =
  match float_of_string_opt s with
  | Some f -> f
  | None -> fail "%s: bad %s field %S" path what s
