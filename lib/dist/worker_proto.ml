module Json = Ftb_service.Json
module Wire = Ftb_service.Wire

exception Decode_error of string

(* Result frames carry one shard's result blob hex-encoded (2 chars per
   byte) plus a small JSON envelope; [frame_slack] over-estimates the
   envelope so the fit check is conservative on both ends. *)
let frame_slack = 512
let max_result_cases = (Wire.max_frame - frame_slack) / 2
let result_fits ~cases = cases <= max_result_cases

(* ------------------------------------------------------------------ *)
(* Hex codec for outcome byte blobs. *)

let hex_of_bytes b =
  let n = Bytes.length b in
  let out = Bytes.create (2 * n) in
  let digit x = if x < 10 then Char.chr (Char.code '0' + x) else Char.chr (Char.code 'a' + x - 10) in
  for i = 0 to n - 1 do
    let c = Char.code (Bytes.get b i) in
    Bytes.set out (2 * i) (digit (c lsr 4));
    Bytes.set out ((2 * i) + 1) (digit (c land 0xf))
  done;
  Bytes.unsafe_to_string out

let bytes_of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then raise (Decode_error "hex blob has odd length");
  let nibble c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> raise (Decode_error (Printf.sprintf "invalid hex byte %C" c))
  in
  let out = Bytes.create (n / 2) in
  for i = 0 to (n / 2) - 1 do
    Bytes.set out i
      (Char.chr ((nibble s.[2 * i] lsl 4) lor nibble s.[(2 * i) + 1]))
  done;
  out

(* ------------------------------------------------------------------ *)
(* Result attestation. The digest binds a shard's result blob to the
   grant that produced it (job, shard, case range, golden trace), so a
   frame corrupted in transit or encoding — or replayed against another
   shard's grant — fails verification server-side before any byte reaches
   the campaign. A worker computing the digest over already-corrupt bytes
   (bad RAM upstream of the hash) still passes this check; that is what
   the server's audit re-execution is for. *)

let outcome_digest ~job ~shard ~lo ~hi ~fingerprint bytes =
  let buf = Buffer.create (64 + Bytes.length bytes) in
  Printf.bprintf buf "ftb-shard-v1:%d:%d:%d:%d:%s:" job shard lo hi fingerprint;
  Buffer.add_bytes buf bytes;
  Ftb_util.Fingerprint.of_string (Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Shared field accessors. *)

let req_int name json =
  match Option.bind (Json.member name json) Json.to_int with
  | Some v -> v
  | None -> raise (Decode_error (Printf.sprintf "missing integer field %S" name))

let req_str name json =
  match Option.bind (Json.member name json) Json.to_str with
  | Some v -> v
  | None -> raise (Decode_error (Printf.sprintf "missing string field %S" name))

let req_float name json =
  match Option.bind (Json.member name json) Json.to_float with
  | Some v -> v
  | None -> raise (Decode_error (Printf.sprintf "missing number field %S" name))

let opt_int name json = Option.bind (Json.member name json) Json.to_int
let opt_str name json = Option.bind (Json.member name json) Json.to_str

let flag name json =
  match Option.bind (Json.member name json) Json.to_bool with
  | Some b -> b
  | None -> false

(* ------------------------------------------------------------------ *)
(* Worker -> server request frames. *)

let register ?name ~domains () =
  Json.Obj
    ([ ("cmd", Json.String "worker_register"); ("domains", Json.Int domains) ]
    @ match name with Some n -> [ ("name", Json.String n) ] | None -> [])

let lease ~worker =
  Json.Obj [ ("cmd", Json.String "worker_lease"); ("worker", Json.Int worker) ]

let heartbeat ~worker ~lease =
  Json.Obj
    ([ ("cmd", Json.String "worker_heartbeat"); ("worker", Json.Int worker) ]
    @ match lease with Some l -> [ ("lease", Json.Int l) ] | None -> [])

type result_payload = Blob of { data : Bytes.t; digest : string } | Failed of string

let result ~worker ~job ~lease ~shard payload =
  Json.Obj
    ([
       ("cmd", Json.String "worker_result");
       ("worker", Json.Int worker);
       ("job", Json.Int job);
       ("lease", Json.Int lease);
       ("shard", Json.Int shard);
     ]
    @
    match payload with
    | Blob { data; digest } ->
        [ ("data", Json.String (hex_of_bytes data)); ("digest", Json.String digest) ]
    | Failed msg -> [ ("error", Json.String msg) ])

type result_frame = {
  res_worker : int;
  res_job : int;
  res_lease : int;
  res_shard : int;
  res_payload : (result_payload, string) Stdlib.result;
}

(* The frame's address (worker, job, lease, shard) is mandatory: without
   it the scheduler cannot even tell which lease to release. A body that
   nothing writes — a blob without its digest, a blob that is not hex, no
   blob and no error — still names its lease, so it decodes to a typed
   [Error] the scheduler can refuse and re-run. *)
let parse_result json =
  let res_worker = req_int "worker" json in
  let res_job = req_int "job" json in
  let res_lease = req_int "lease" json in
  let res_shard = req_int "shard" json in
  let res_payload =
    match (opt_str "data" json, opt_str "digest" json, opt_str "error" json) with
    | Some hex, Some digest, _ -> (
        match bytes_of_hex hex with
        | data -> Ok (Blob { data; digest })
        | exception Decode_error msg -> Error ("result blob: " ^ msg))
    | Some _, None, _ -> Error "result blob carries no attestation digest"
    | None, _, Some msg -> Ok (Failed msg)
    | None, _, None -> Error "result carries neither data nor error"
  in
  { res_worker; res_job; res_lease; res_shard; res_payload }

let detach ~worker =
  Json.Obj [ ("cmd", Json.String "worker_detach"); ("worker", Json.Int worker) ]

(* ------------------------------------------------------------------ *)
(* Server -> worker reply frames and their parsers. *)

let check_ok json =
  if not (flag "ok" json) then begin
    let code =
      Option.bind (Json.member "error" json) (opt_str "code")
      |> Option.value ~default:"error"
    in
    let message =
      Option.bind (Json.member "error" json) (opt_str "message")
      |> Option.value ~default:"unspecified server error"
    in
    raise (Decode_error (Printf.sprintf "%s: %s" code message))
  end

type registration = { worker : int; ttl : float }

let registered ~worker ~ttl =
  Json.Obj [ ("ok", Json.Bool true); ("worker", Json.Int worker); ("ttl", Json.Float ttl) ]

let parse_registered json =
  check_ok json;
  { worker = req_int "worker" json; ttl = req_float "ttl" json }

type grant = {
  job_id : int;
  bench : string;
  fuel : int option;
  model : Ftb_inject.Models.spec;
  fingerprint : string;
  lease_id : int;
  shard : int;
  lo : int;
  hi : int;
  ttl : float;
  cases : int array option;
      (* [Some cases] marks a drawn shard: positions lo..hi of the
         planner's round, so |cases| = hi - lo. *)
}

type lease_reply = Granted of grant | Wait of float

let grant_frame (g : grant) =
  Json.Obj
    [
      ("ok", Json.Bool true);
      ( "grant",
        Json.Obj
          ([
             ("job", Json.Int g.job_id);
             ("bench", Json.String g.bench);
             ("model", Json.String (Ftb_inject.Models.spec_to_string g.model));
             ("fingerprint", Json.String g.fingerprint);
             ("lease", Json.Int g.lease_id);
             ("shard", Json.Int g.shard);
             ("lo", Json.Int g.lo);
             ("hi", Json.Int g.hi);
             ("ttl", Json.Float g.ttl);
           ]
          @ (match g.fuel with Some f -> [ ("fuel", Json.Int f) ] | None -> [])
          @
          match g.cases with
          | Some cases ->
              [ ("cases", Json.List (Array.to_list (Array.map (fun c -> Json.Int c) cases))) ]
          | None -> []) );
    ]

let wait_frame ~poll =
  Json.Obj [ ("ok", Json.Bool true); ("wait", Json.Bool true); ("poll", Json.Float poll) ]

let parse_lease_reply json =
  check_ok json;
  match Json.member "grant" json with
  | Some g ->
      Granted
        {
          job_id = req_int "job" g;
          bench = req_str "bench" g;
          fuel = opt_int "fuel" g;
          model =
            (match Ftb_inject.Models.spec_of_string (req_str "model" g) with
            | Ok model -> model
            | Error msg -> raise (Decode_error msg));
          fingerprint = req_str "fingerprint" g;
          lease_id = req_int "lease" g;
          shard = req_int "shard" g;
          lo = req_int "lo" g;
          hi = req_int "hi" g;
          ttl = req_float "ttl" g;
          cases =
            (match Json.member "cases" g with
            | Some (Json.List items) ->
                Some
                  (Array.of_list
                     (List.map
                        (fun item ->
                          match Json.to_int item with
                          | Some c -> c
                          | None -> raise (Decode_error "non-integer case in sparse grant"))
                        items))
            | Some _ -> raise (Decode_error "sparse grant cases must be a list")
            | None -> None);
        }
  | None ->
      if flag "wait" json then Wait (req_float "poll" json)
      else raise (Decode_error "lease reply carries neither grant nor wait")

let heartbeat_reply ~valid =
  Json.Obj [ ("ok", Json.Bool true); ("valid", Json.Bool valid) ]

let parse_heartbeat_reply json =
  check_ok json;
  flag "valid" json

type result_ack = { committed : bool; stale : bool }

let result_ack_frame ~committed ~stale =
  Json.Obj
    [ ("ok", Json.Bool true); ("committed", Json.Bool committed); ("stale", Json.Bool stale) ]

let parse_result_ack json =
  check_ok json;
  { committed = flag "committed" json; stale = flag "stale" json }

let detached_frame = Json.Obj [ ("ok", Json.Bool true) ]

(* ------------------------------------------------------------------ *)
(* Fleet administration frames (`ftb workers`). *)

type worker_row = {
  row_wid : int;
  row_name : string;
  row_domains : int;
  row_age : float;
  row_committed : int;
  row_failed : int;
  row_disputed : int;
  row_quarantined : bool;
}

let workers_request = Json.Obj [ ("cmd", Json.String "worker_stats") ]

let workers_clear_request ~name =
  Json.Obj [ ("cmd", Json.String "worker_clear"); ("name", Json.String name) ]

let workers_frame rows ~barred =
  let row r =
    Json.Obj
      [
        ("wid", Json.Int r.row_wid);
        ("name", Json.String r.row_name);
        ("domains", Json.Int r.row_domains);
        ("age", Json.Float r.row_age);
        ("committed", Json.Int r.row_committed);
        ("failed", Json.Int r.row_failed);
        ("disputed", Json.Int r.row_disputed);
        ("quarantined", Json.Bool r.row_quarantined);
      ]
  in
  let bar (name, disputes) =
    Json.Obj [ ("name", Json.String name); ("disputes", Json.Int disputes) ]
  in
  Json.Obj
    [
      ("ok", Json.Bool true);
      ("workers", Json.List (List.map row rows));
      ("barred", Json.List (List.map bar barred));
    ]

let parse_workers json =
  check_ok json;
  let rows =
    match Json.member "workers" json with
    | Some (Json.List items) ->
        List.map
          (fun item ->
            {
              row_wid = req_int "wid" item;
              row_name = req_str "name" item;
              row_domains = req_int "domains" item;
              row_age = req_float "age" item;
              row_committed = req_int "committed" item;
              row_failed = req_int "failed" item;
              row_disputed = req_int "disputed" item;
              row_quarantined = flag "quarantined" item;
            })
          items
    | _ -> raise (Decode_error "workers reply lacks a workers list")
  in
  let barred =
    match Json.member "barred" json with
    | Some (Json.List items) ->
        List.map (fun item -> (req_str "name" item, req_int "disputes" item)) items
    | _ -> []
  in
  (rows, barred)

let cleared_frame ~cleared =
  Json.Obj [ ("ok", Json.Bool true); ("cleared", Json.Bool cleared) ]

let parse_cleared json =
  check_ok json;
  flag "cleared" json

let error_frame code message =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj [ ("code", Json.String code); ("message", Json.String message) ] );
    ]
