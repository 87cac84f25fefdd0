(* Mutation fuzz of every decoder of durable or remote bytes.

   Each target takes valid encodings of its format, mutates them (byte
   flips, truncation, duplicated byte ranges, records spliced from two
   encodings) and decodes the result. A decode must either raise the
   decoder's own typed error, or succeed with a value that round-trips:
   re-encoding it and decoding that again gives the same encoding. Any
   other exception fails the run; a watchdog fails it on a hang.

   Fixed seed and count, so a failure reproduces: the report prints the
   mutated input. Run with: dune build @decode-fuzz --force *)

module Persist = Ftb_inject.Persist
module Sample_codec = Ftb_inject.Sample_codec
module Sample_run = Ftb_inject.Sample_run
module Models = Ftb_inject.Models
module Golden = Ftb_trace.Golden
module Checkpoint = Ftb_campaign.Checkpoint
module Profile = Ftb_compose.Profile
module Adaptive = Ftb_core.Adaptive
module RC = Ftb_plan.Round_checkpoint
module AE = Ftb_plan.Adaptive_engine
module BS = Ftb_plan.Boundary_store
module Json = Ftb_service.Json
module Wire = Ftb_service.Wire
module Job = Ftb_service.Job
module P = Ftb_dist.Worker_proto
module Fingerprint = Ftb_util.Fingerprint

let seed = 20_261_018
let count = 1000
let watchdog_s = 300

(* Thousands of small file writes: on tmpfs where there is one, so they
   stay off the disk that the timing guards running beside this in
   `dune runtest` measure (beside a disk-backed run, bench_campaign's
   checkpoint tripwire read up to +9 % instead of 0-4 %). *)
let dir =
  let base = if Sys.file_exists "/dev/shm" then "/dev/shm" else Filename.get_temp_dir_name () in
  Filename.concat base (Printf.sprintf "ftb_decode_fuzz_%d" (Unix.getpid ()))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let scratch name = Filename.concat dir name

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let enveloped payload =
  let path = scratch "envelope.tmp-src" in
  Persist.save_enveloped ~path (fun b -> Buffer.add_string b payload);
  read_file path

exception Round_trip of string

(* [decode] either returns [Some encoding-of-the-value] or raises; a
   typed error is [None]. The round trip: decode the re-encoding, and it
   must re-encode to the same bytes. *)
let check_round_trip ~name decode input =
  match decode input with
  | None -> ()
  | Some encoded -> (
      match decode encoded with
      | Some again when again = encoded -> ()
      | Some _ -> raise (Round_trip (name ^ ": re-encoding is not stable"))
      | None -> raise (Round_trip (name ^ ": re-encoding does not decode")))

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)

let mutate seeds =
  let open QCheck.Gen in
  let step s =
    let len = String.length s in
    frequency
      [
        ( 4,
          (* byte flip: one bit, or a whole random byte *)
          if len = 0 then return s
          else
            int_bound (len - 1) >>= fun i ->
            oneof [ map (fun k -> 1 lsl k) (int_bound 7); int_range 1 255 ] >|= fun mask ->
            let b = Bytes.of_string s in
            Bytes.set b i (Char.chr (Char.code s.[i] lxor mask));
            Bytes.to_string b );
        (2, int_bound len >|= fun k -> String.sub s 0 k);
        ( 2,
          (* duplicate a byte range in place, or somewhere else *)
          int_bound len >>= fun i ->
          int_bound (min 64 (len - i)) >>= fun l ->
          int_bound len >|= fun j ->
          String.sub s 0 j ^ String.sub s i l ^ String.sub s j (len - j) );
        ( 2,
          (* splice: this encoding's head onto another's tail *)
          oneofl seeds >>= fun other ->
          int_bound len >>= fun i ->
          int_bound (String.length other) >|= fun j ->
          String.sub s 0 i ^ String.sub other j (String.length other - j) );
      ]
  in
  oneofl seeds >>= fun base ->
  int_range 1 3 >>= fun n ->
  let rec go s n = if n = 0 then return s else step s >>= fun s -> go s (n - 1) in
  go base n

let print input =
  let shown = if String.length input > 512 then String.sub input 0 512 ^ "..." else input in
  Printf.sprintf "%d bytes: %S" (String.length input) shown

(* Per target: inputs that decoded, and inputs refused with the typed
   error — a target whose mutants all decode, or all fail, is weak. *)
let tallies = ref []

let target ~name ~seeds decode =
  let decoded = ref 0 and refused = ref 0 in
  tallies := (name, decoded, refused) :: !tallies;
  let decode input =
    let r = decode input in
    incr (if r = None then refused else decoded);
    r
  in
  List.iter (fun s -> check_round_trip ~name decode s) seeds;
  QCheck.Test.make ~name ~count
    (QCheck.make ~print (mutate seeds))
    (fun input ->
      check_round_trip ~name decode input;
      true)

(* ------------------------------------------------------------------ *)
(* Fixtures: a miniature kernel and its durable artifacts              *)

let program =
  let open Ftb_trace in
  let statics = Static.create_table () in
  let tag = Static.register statics ~phase:"fuzz.iter" ~label:"x[i]" in
  let body ctx =
    let x = Array.map (fun v -> Ctx.record ctx ~tag v) [| 1.0; 2.0; 3.0; 4.0 |] in
    for _ = 1 to 4 do
      for i = 0 to 3 do
        x.(i) <- Ctx.record ctx ~tag ((x.(i) +. (0.25 *. x.((i + 1) mod 4))) /. 1.5)
      done
    done;
    [| Ctx.record ctx ~tag (Array.fold_left ( +. ) 0. x) |]
  in
  Program.make ~name:"fuzz" ~description:"decode fuzz fixture" ~tolerance:0.05 ~statics body

let golden = lazy (Golden.run program)
let config = { Adaptive.default_config with Adaptive.round_fraction = 0.05; max_rounds = 6 }

let samples =
  lazy
    (let g = Lazy.force golden in
     Array.map
       (Sample_run.run_case_model Models.default_spec g)
       [| 0; 62; 130; 700; 1100; (Golden.sites g * 64) - 1 |])

let adaptive_log ~cancel_after =
  let g = Lazy.force golden in
  let path = scratch (Printf.sprintf "log-%d" cancel_after) in
  let folded = ref 0 in
  (try
     ignore
       (AE.run ~config ~checkpoint:path
          ~on_round:(fun ~round:_ ~drawn:_ ~masked:_ ~sdc:_ ~crash:_ -> incr folded)
          ~cancel:(fun () -> !folded >= cancel_after)
          ~name:"fuzz" ~seed:7 g
         : Adaptive.result * AE.stats)
   with AE.Cancelled -> ());
  read_file path

(* ------------------------------------------------------------------ *)
(* Targets                                                             *)

let job_info =
  {
    Job.id = 3;
    spec = Job.default_spec ~bench:"ir.dot";
    status = Job.Completed;
    counts = { Job.cases_done = 64; cases_total = 64; masked = 60; sdc = 3; crash = 1 };
    submitted = 1700000000.25;
    started = Some 1700000001.5;
    finished = None;
    idem = None;
    cache = Job.Cache_partial;
  }

let typed_json f s =
  match f s with v -> Some v | exception (Json.Parse_error _ | P.Decode_error _) -> None

let json_target () =
  let seeds =
    [
      Json.to_string (Job.info_to_json job_info);
      {|{"a":[1,2.5,-3e7,"x\né",true,false,null],"b":{"c":{}}}|};
      {|[0.1,1e300,"inf","nan",{"k":"v"}]|};
    ]
  in
  target ~name:"json" ~seeds
    (typed_json (fun s -> Json.to_string (Json.of_string s)))

let wire_target () =
  let frame json =
    let r, w = Unix.pipe ~cloexec:true () in
    Wire.write w json;
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> In_channel.input_all ic)
  in
  let frames =
    [ P.registered ~worker:3 ~ttl:2.5; P.wait_frame ~poll:0.25; P.heartbeat ~worker:1 ~lease:(Some 9) ]
  in
  let seeds = List.map frame frames @ [ String.concat "" (List.map frame frames) ] in
  (* Decode every frame in the bytes, then re-frame them. *)
  let decode input =
    let r, w = Unix.pipe ~cloexec:true () in
    Fun.protect
      ~finally:(fun () -> Unix.close r)
      (fun () ->
        ignore (Unix.write_substring w input 0 (String.length input) : int);
        Unix.close w;
        let rec read_all acc =
          match Wire.read r with
          | json -> read_all (json :: acc)
          | exception Wire.Closed -> List.rev acc
        in
        match read_all [] with
        | jsons -> Some (String.concat "" (List.map frame jsons))
        | exception Wire.Protocol_error _ -> None)
  in
  target ~name:"wire frames" ~seeds decode

let grant =
  {
    P.job_id = 4;
    bench = "ir.dot";
    fuel = Some 1000;
    model = Models.default_spec;
    fingerprint = Fingerprint.of_string "golden";
    lease_id = 11;
    shard = 2;
    lo = 10;
    hi = 13;
    ttl = 1.5;
    cases = Some [| 5; 99; 130 |];
  }

let worker_replies_targets () =
  let row =
    {
      P.row_wid = 1;
      row_name = "w1";
      row_domains = 2;
      row_age = 0.5;
      row_committed = 7;
      row_failed = 0;
      row_disputed = 1;
      row_quarantined = false;
    }
  in
  let frames =
    [
      P.grant_frame grant;
      P.grant_frame { grant with cases = None; fuel = None };
      P.wait_frame ~poll:0.125;
      P.registered ~worker:3 ~ttl:2.5;
      P.heartbeat_reply ~valid:true;
      P.result_ack_frame ~committed:true ~stale:false;
      P.workers_frame [ row ] ~barred:[ ("liar", 3) ];
      P.cleared_frame ~cleared:true;
      P.error_frame "bad_request" "nope";
    ]
  in
  let seeds = List.map Json.to_string frames in
  (* One target per reply parser, each fed every kind of reply: it must
     answer or raise its typed error, and what it answers re-frames. *)
  let parser name parse frame =
    target ~name:("worker_proto reply: " ^ name) ~seeds
      (typed_json (fun s -> Json.to_string (frame (parse (Json.of_string s)))))
  in
  [
    parser "lease" P.parse_lease_reply (function
      | P.Granted g -> P.grant_frame g
      | P.Wait poll -> P.wait_frame ~poll);
    parser "registered" P.parse_registered (fun r ->
        P.registered ~worker:r.P.worker ~ttl:r.P.ttl);
    parser "heartbeat" P.parse_heartbeat_reply (fun valid -> P.heartbeat_reply ~valid);
    parser "result ack" P.parse_result_ack (fun a ->
        P.result_ack_frame ~committed:a.P.committed ~stale:a.P.stale);
    parser "workers" P.parse_workers (fun (rows, barred) -> P.workers_frame rows ~barred);
    parser "cleared" P.parse_cleared (fun cleared -> P.cleared_frame ~cleared);
  ]

let worker_results_target () =
  let blob = Bytes.of_string (Sample_codec.encode (Lazy.force samples)) in
  let frames =
    [
      P.result ~worker:1 ~job:4 ~lease:11 ~shard:2
        (P.Blob { data = Bytes.of_string "\000\001\002\005"; digest = "d1" });
      P.result ~worker:1 ~job:4 ~lease:12 ~shard:3 (P.Blob { data = blob; digest = "d2" });
      P.result ~worker:2 ~job:4 ~lease:13 ~shard:0 (P.Failed "worker bug");
    ]
  in
  (* The scheduler's own decoder: a frame decodes to an addressed payload
     that re-frames, or to a typed refusal. *)
  let decode s =
    match P.parse_result (Json.of_string s) with
    | { P.res_payload = Ok payload; res_worker; res_job; res_lease; res_shard } ->
        Some
          (Json.to_string
             (P.result ~worker:res_worker ~job:res_job ~lease:res_lease ~shard:res_shard
                payload))
    | { P.res_payload = Error _; _ } -> None
    | exception (Json.Parse_error _ | P.Decode_error _) -> None
  in
  target ~name:"worker_proto results" ~seeds:(List.map Json.to_string frames) decode

let envelope_target () =
  let path = scratch "envelope" in
  let decode input =
    write_file path input;
    match Persist.load_enveloped ~path with
    | payload -> Some (enveloped payload)
    | exception Persist.Format_error _ -> None
  in
  target ~name:"envelope" ~seeds:[ enveloped ""; enveloped "payload\nwith\000bytes" ] decode

(* Payload-level targets re-envelope the mutated payload, so mutations
   reach the parser instead of stopping at the checksum. *)
let checkpoint_target () =
  let g = Lazy.force golden in
  let path = scratch "checkpoint" in
  let spec = Models.default_spec in
  let payload_of t =
    Checkpoint.save ~path t;
    Persist.load_enveloped ~path
  in
  let partial = Checkpoint.create ~model:spec g ~shard_size:64 in
  Ftb_inject.Executor.range_into_model spec g ~lo:0 ~hi:128 partial.Checkpoint.outcomes ~off:0;
  Array.fill partial.Checkpoint.completed 0 2 true;
  let seeds = [ payload_of partial; payload_of (Checkpoint.create g ~shard_size:500) ] in
  let decode payload =
    Persist.save_enveloped ~path (fun b -> Buffer.add_string b payload);
    match Checkpoint.load ~model:spec ~path ~shard_size:64 g with
    | t -> Some (payload_of t)
    | exception Persist.Format_error _ -> None
  in
  target ~name:"checkpoint v3" ~seeds decode

let round_log_target () =
  let path = scratch "round-log" in
  let encode t =
    RC.save ~path t;
    read_file path
  in
  let seeds = [ adaptive_log ~cancel_after:1; adaptive_log ~cancel_after:100 ] in
  let decode input =
    write_file path input;
    match RC.load ~path with
    | t -> Some (encode t)
    | exception Persist.Format_error _ -> None
  in
  target ~name:"round log v2" ~seeds decode

let profile_target () =
  let fp = Fingerprint.of_string in
  let section =
    Profile.Section
      {
        Profile.key = fp "section";
        model = "bit-flip-64";
        width = 64;
        site_lo = 3;
        sites = 2;
        entry_fp = fp "entry";
        exit_fp = fp "exit";
        prov = Profile.prov_fleet ~audited:true ~workers:[ "w1"; "w2" ];
        outcomes = String.init 128 (fun i -> Char.chr (i mod 6));
      }
  in
  let boundary =
    Profile.Boundary
      {
        Profile.bkey = fp "boundary";
        bmodel = "bit-flip-32";
        bwidth = 32;
        bsites = 1;
        golden_fp = fp "golden";
        masked = 30;
        sdc = 1;
        crash = 1;
        bprov = Profile.prov_local;
        boutcomes = String.make 30 '\000' ^ "\001\003";
      }
  in
  let encode p =
    let b = Buffer.create 256 in
    Profile.write p b;
    Buffer.contents b
  in
  let decode payload =
    match Profile.parse ~path:"fuzz" payload with
    | p -> Some (encode p)
    | exception Persist.Format_error _ -> None
  in
  target ~name:"profile" ~seeds:[ encode section; encode boundary ] decode

let boundary_entry_target () =
  let g = Lazy.force golden in
  let root = scratch "bstore" in
  let store = BS.open_ ~root in
  let result = Adaptive.run_model ~config (Ftb_util.Rng.create ~seed:7) g in
  let entry =
    BS.entry_of_result ~bench:"fuzz" ~spec:Models.default_spec ~fuel:None ~config ~seed:7
      ~created:1234.5 g result
  in
  BS.put store entry;
  let path = BS.path_of_key store entry.BS.key in
  let seed_payload = Persist.load_enveloped ~path in
  (* The serving path: [find] under the entry's key either serves a value
     or reports a miss (quarantining the file); a served value is put
     back and must come back identical. *)
  let decode payload =
    rm_rf root;
    let store = BS.open_ ~root in
    Persist.mkdir_p (Filename.dirname path);
    Persist.save_enveloped ~path (fun b -> Buffer.add_string b payload);
    match BS.find store ~key:entry.BS.key with
    | None -> None
    | Some e ->
        rm_rf root;
        let store = BS.open_ ~root in
        BS.put store e;
        Some (Persist.load_enveloped ~path)
  in
  target ~name:"boundary-store entry" ~seeds:[ seed_payload ] decode

let sample_codec_target () =
  let all = Lazy.force samples in
  let decode blob =
    match Sample_codec.decode blob with
    | s -> Some (Sample_codec.encode s)
    | exception Sample_codec.Format_error _ -> None
  in
  target ~name:"sample codec"
    ~seeds:[ Sample_codec.encode all; Sample_codec.encode [| all.(1) |]; Sample_codec.encode [||] ]
    decode

let job_target () =
  let info = job_info in
  let adaptive =
    {
      info with
      Job.id = 9;
      spec =
        {
          info.Job.spec with
          Job.mode = Job.Adaptive { config; seed = 3 };
          fuel = None;
          model = { Models.model = Models.Random_value { lo = -1.; hi = 2. }; seed = 5 };
        };
      status = Job.Failed "boom";
      idem = Some "k1";
    }
  in
  let decode s =
    match Job.info_of_json (Json.of_string s) with
    | i -> Some (Json.to_string (Job.info_to_json i))
    | exception (Json.Parse_error _ | Job.Decode_error _) -> None
  in
  target ~name:"job descriptor"
    ~seeds:(List.map (fun i -> Json.to_string (Job.info_to_json i)) [ info; adaptive ])
    decode

let () =
  ignore (Unix.alarm watchdog_s : int);
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "decode-fuzz: FAIL — a decoder hung (watchdog fired)";
         exit 2));
  rm_rf dir;
  Persist.mkdir_p dir;
  let tests =
    List.concat
      [
        [ json_target (); wire_target () ];
        worker_replies_targets ();
        [
          worker_results_target ();
          envelope_target ();
          checkpoint_target ();
          round_log_target ();
          profile_target ();
          boundary_entry_target ();
          sample_codec_target ();
          job_target ();
        ];
      ]
  in
  let code =
    QCheck_base_runner.run_tests ~colors:false ~verbose:false
      ~rand:(Random.State.make [| seed |])
      tests
  in
  List.iter
    (fun (name, decoded, refused) ->
      Printf.printf "decode-fuzz: %-32s %5d decodes, %5d typed errors\n" name !decoded !refused)
    (List.sort compare !tallies);
  rm_rf dir;
  exit code
