module Adaptive = Ftb_core.Adaptive
module Models = Ftb_inject.Models
module Persist = Ftb_inject.Persist
module Sample_codec = Ftb_inject.Sample_codec
module Sample_run = Ftb_inject.Sample_run
module Fingerprint = Ftb_util.Fingerprint

type t = {
  name : string;
  sites : int;
  spec : Models.spec;
  fuel : int option;
  fingerprint : string;
  config : Adaptive.config;
  seed : int;
  rng_state : int64;
  rounds : int;
  samples : Sample_run.t array;
  pending : int array option;
  stop : Adaptive.stop_reason option;
}

let log_magic = "ftb-adaptive-log-v2\n"

let fail path fmt =
  Printf.ksprintf (fun msg -> raise (Persist.Format_error (path ^ ": " ^ msg))) fmt

let check_name name =
  if
    name = ""
    || String.exists (function ' ' | '\n' | '\r' | '\t' -> true | _ -> false) name
  then invalid_arg "Round_checkpoint: program name must be a non-empty space-free token"

let fuel_token = function None -> "none" | Some n -> string_of_int n

(* ------------------------------------------------------------------ *)
(* Writing: the append-only round log                                  *)

(* Layout: the line [log_magic], then frames

     kind     1 byte    'H' header | 'D' draw | 'R' round | 'E' stop
     length   4 bytes   payload length, big-endian
     hcrc     4 bytes   CRC-32 of kind + length
     payload  length bytes
     pcrc     4 bytes   CRC-32 of payload

   H (first frame, exactly once): the campaign identity, the RNG state and
   the rounds folded so far as one text line, a newline, then the
   Sample_codec blob of the samples folded so far. D: the RNG state after
   the draw (int64 LE), then the drawn cases (int64 LE each). R: the
   Sample_codec blob of the pending round's samples alone. E: the stop
   reason token; nothing may follow it.

   The header CRC tells a torn final frame (fewer bytes on disk than its
   length announces) from a corrupt length field. *)

let frame_overhead = 13

let be32 n =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.unsafe_to_string b

let add_frame buf kind payload =
  let head = String.make 1 kind ^ be32 (String.length payload) in
  Buffer.add_string buf head;
  Buffer.add_string buf (be32 (Persist.crc32 head));
  Buffer.add_string buf payload;
  Buffer.add_string buf (be32 (Persist.crc32 payload))

let header_payload t =
  Printf.sprintf "%s %d %s %s %s %h %h %d %d %d %d %Lx %d\n%s" t.name t.sites
    (Models.spec_to_string t.spec)
    (fuel_token t.fuel) t.fingerprint t.config.Adaptive.round_fraction
    t.config.Adaptive.stop_sdc_fraction t.config.Adaptive.max_rounds
    (if t.config.Adaptive.filter then 1 else 0)
    (if t.config.Adaptive.bias then 1 else 0)
    t.seed t.rng_state t.rounds
    (Sample_codec.encode t.samples)

let draw_payload ~rng_state cases =
  let b = Bytes.create (8 * (Array.length cases + 1)) in
  Bytes.set_int64_le b 0 rng_state;
  Array.iteri (fun i case -> Bytes.set_int64_le b (8 * (i + 1)) (Int64.of_int case)) cases;
  Bytes.unsafe_to_string b

let save ~path t =
  check_name t.name;
  let buf = Buffer.create 4096 in
  Buffer.add_string buf log_magic;
  add_frame buf 'H' (header_payload t);
  Option.iter
    (fun cases -> add_frame buf 'D' (draw_payload ~rng_state:t.rng_state cases))
    t.pending;
  Option.iter (fun reason -> add_frame buf 'E' (Adaptive.stop_reason_to_string reason)) t.stop;
  Persist.with_out_atomic path (fun oc -> Buffer.output_buffer oc buf)

type log = { oc : out_channel; buf : Buffer.t }

let open_log ~path t =
  save ~path t;
  {
    oc = open_out_gen [ Open_wronly; Open_append; Open_binary ] 0o644 path;
    buf = Buffer.create 4096;
  }

let append log kind payload =
  Buffer.clear log.buf;
  add_frame log.buf kind payload;
  Buffer.output_buffer log.oc log.buf;
  flush log.oc

let append_draw log ~rng_state cases = append log 'D' (draw_payload ~rng_state cases)
let append_round log samples = append log 'R' (Sample_codec.encode samples)
let append_stop log reason = append log 'E' (Adaptive.stop_reason_to_string reason)
let close_log log = close_out log.oc

(* ------------------------------------------------------------------ *)
(* Reading: the log                                                   *)

let bool_field path what s =
  match s with
  | "0" -> false
  | "1" -> true
  | _ -> fail path "bad %s flag %S" what s

(* The campaign identity of the header frame, space-split. *)
let parse_identity path = function
  | [
      name; sites; model; fuel; fp; rf; stop_frac; max_rounds; filter; bias; seed; rng_state;
      rounds;
    ] ->
      let spec =
        match Models.spec_of_string model with
        | Ok spec -> spec
        | Error msg -> fail path "%s" msg
      in
      let fuel =
        if fuel = "none" then None
        else
          let n = Persist.int_field ~path "fuel" fuel in
          if n <= 0 then fail path "fuel must be positive" else Some n
      in
      let sites = Persist.int_field ~path "sites" sites in
      if sites <= 0 then fail path "sites must be positive";
      if not (Fingerprint.is_hex fp) then fail path "bad golden fingerprint %S" fp;
      let config =
        {
          Adaptive.round_fraction = Persist.float_field ~path "round_fraction" rf;
          stop_sdc_fraction = Persist.float_field ~path "stop_sdc_fraction" stop_frac;
          max_rounds = Persist.int_field ~path "max_rounds" max_rounds;
          filter = bool_field path "filter" filter;
          bias = bool_field path "bias" bias;
        }
      in
      (match Adaptive.check_config config with
      | () -> ()
      | exception Invalid_argument msg -> fail path "%s" msg);
      let rng_state =
        match Int64.of_string_opt ("0x" ^ rng_state) with
        | Some v -> v
        | None -> fail path "bad rng state %S" rng_state
      in
      let rounds = Persist.int_field ~path "rounds" rounds in
      if rounds < 0 then fail path "negative round count";
      {
        name;
        sites;
        spec;
        fuel;
        fingerprint = fp;
        config;
        seed = Persist.int_field ~path "seed" seed;
        rng_state;
        rounds;
        samples = [||];
        pending = None;
        stop = None;
      }
  | _ -> fail path "malformed checkpoint header"

let decode_samples ?cases path t what blob =
  let samples =
    match Sample_codec.decode blob with
    | samples -> samples
    | exception Sample_codec.Format_error msg -> fail path "%s: %s" what msg
  in
  match Sample_codec.validate t.spec ~sites:t.sites ?cases samples with
  | Ok () -> samples
  | Error msg -> fail path "%s: %s" what msg

let check_pending path t cases =
  let total = Models.total_cases t.spec ~sites:t.sites in
  if Array.length cases = 0 then fail path "empty pending round";
  Array.iter
    (fun case ->
      if case < 0 || case >= total then
        fail path "pending case %d outside the model's %d-case space" case total)
    cases

(* Replay a log. A final frame cut short (a crash mid-append) is dropped:
   what it would have recorded — a draw, a folded round or the stop — is
   redone or re-derived deterministically from the state before it. Every
   other defect is a Format_error. *)
let load_log path data =
  let n = String.length data in
  let get32 pos = Int32.to_int (String.get_int32_be data pos) land 0xFFFFFFFF in
  (* The frame at [pos] as [Some (kind, payload, next)], or [None] when
     it is torn. *)
  let frame pos =
    if pos + 9 > n then None
    else begin
      if get32 (pos + 5) <> Persist.crc32 (String.sub data pos 5) then
        fail path "frame header checksum mismatch at byte %d" pos;
      let len = get32 (pos + 1) in
      if len > n - pos - frame_overhead then None
      else begin
        let payload = String.sub data (pos + 9) len in
        if get32 (pos + 9 + len) <> Persist.crc32 payload then
          fail path "frame checksum mismatch at byte %d" pos;
        Some (data.[pos], payload, pos + frame_overhead + len)
      end
    end
  in
  let header, first =
    match frame (String.length log_magic) with
    | Some ('H', payload, next) -> (
        match String.index_opt payload '\n' with
        | None -> fail path "malformed log header"
        | Some nl ->
            let t = parse_identity path (String.split_on_char ' ' (String.sub payload 0 nl)) in
            let blob = String.sub payload (nl + 1) (String.length payload - nl - 1) in
            ({ t with samples = decode_samples path t "samples" blob }, next))
    | Some _ -> fail path "log does not start with a header frame"
    | None -> fail path "truncated log header"
  in
  let rec replay t rounds_rev pos =
    match if pos = n then None else frame pos with
    | None -> (t, rounds_rev)
    | Some (kind, payload, next) -> (
        if t.stop <> None then fail path "record after the stop record";
        match (kind, t.pending) with
        | 'D', None ->
            let len = String.length payload in
            if len < 16 || len mod 8 <> 0 then fail path "malformed draw record";
            let cases =
              Array.init ((len / 8) - 1) (fun i ->
                  Int64.to_int (String.get_int64_le payload (8 * (i + 1))))
            in
            check_pending path t cases;
            replay
              { t with rng_state = String.get_int64_le payload 0; pending = Some cases }
              rounds_rev next
        | 'D', Some _ -> fail path "two draws without a folded round"
        | 'R', Some cases ->
            let samples = decode_samples ~cases path t "round record" payload in
            replay { t with rounds = t.rounds + 1; pending = None } (samples :: rounds_rev) next
        | 'R', None -> fail path "round record without a pending draw"
        | 'E', None -> (
            match Adaptive.stop_reason_of_string payload with
            | Some reason -> replay { t with stop = Some reason } rounds_rev next
            | None -> fail path "bad stop reason %S" payload)
        | 'E', Some _ -> fail path "finished checkpoint still has a pending round"
        | c, _ -> fail path "unknown record kind %C" c)
  in
  let t, rounds_rev = replay header [] first in
  let stop =
    match (t.stop, t.pending, rounds_rev) with
    | None, None, last :: _ -> (
        (* The stop record after a final round can be torn off; the round
           itself says whether the campaign stopped there. *)
        match Adaptive.round_verdict t.config ~rounds:t.rounds last with
        | `Stop reason -> Some reason
        | `Continue -> None)
    | stop, _, _ -> stop
  in
  { t with samples = Array.concat (t.samples :: List.rev rounds_rev); stop }

let load ~path =
  let data =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> fail path "cannot read: %s" msg
  in
  if String.starts_with ~prefix:log_magic data then load_log path data
  else
    fail path "unsupported adaptive checkpoint format %S (expected %s)"
      (Persist.format_token data) (String.trim log_magic)
