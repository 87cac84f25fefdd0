(* The service layer's building blocks: the JSON codec, length-prefixed
   wire framing over real descriptors, job descriptor round-trips, and
   the bounded priority queue's ordering and backpressure. The end-to-end
   daemon paths (submit -> watch -> complete, crash/restart) live in
   service_smoke.ml under the @service-smoke alias. *)

module Json = Ftb_service.Json
module Wire = Ftb_service.Wire
module Job = Ftb_service.Job
module Job_queue = Ftb_service.Job_queue

(* ------------------------------------------------------------------ *)
(* JSON codec                                                          *)

let roundtrip v = Json.of_string (Json.to_string v)

let test_json_roundtrip () =
  let samples =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Int 0;
      Json.Int (-42);
      Json.Int max_int;
      Json.Float 0.5;
      Json.Float (-1.25e-9);
      Json.Float 3.141592653589793;
      Json.String "";
      Json.String "hello";
      Json.String "quote \" slash \\ newline \n tab \t ctrl \001";
      Json.List [];
      Json.List [ Json.Int 1; Json.String "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("a", Json.Int 1);
          ("nested", Json.Obj [ ("b", Json.List [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      Alcotest.(check string)
        "to_string . of_string . to_string is stable" (Json.to_string v)
        (Json.to_string (roundtrip v)))
    samples

let test_json_unicode_escapes () =
  (* \u escapes decode to UTF-8, including a surrogate pair. *)
  (match Json.of_string {|"éA"|} with
  | Json.String s -> Alcotest.(check string) "BMP escapes" "\xc3\xa9A" s
  | _ -> Alcotest.fail "expected a string");
  match Json.of_string {|"😀"|} with
  | Json.String s -> Alcotest.(check string) "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string"

let test_json_nonfinite_floats () =
  (* Non-finite floats serialize as tagged strings and read back. *)
  let check name f =
    let s = Json.to_string (Json.Float f) in
    match Json.to_float (Json.of_string s) with
    | Some f' ->
        Alcotest.(check bool) name true (f = f' || (Float.is_nan f && Float.is_nan f'))
    | None -> Alcotest.fail (name ^ ": did not read back as a float")
  in
  check "inf" infinity;
  check "-inf" neg_infinity;
  check "nan" Float.nan

let test_json_rejects_garbage () =
  let rejects s =
    match Json.of_string s with
    | _ -> Alcotest.fail (Printf.sprintf "accepted %S" s)
    | exception Json.Parse_error _ -> ()
  in
  List.iter rejects
    [
      "";
      "nul";
      "{";
      "[1,]";
      "{\"a\":}";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"\\ud800 lone\"";
      "1 2";
      "{} trailing";
      "--5";
    ]

let test_json_accessors () =
  let v = Json.of_string {|{"n":3,"f":1.5,"s":"x","b":true,"l":[1],"z":null}|} in
  let get name = Option.get (Json.member name v) in
  Alcotest.(check (option int)) "int" (Some 3) (Json.to_int (get "n"));
  Alcotest.(check bool) "float" true (Json.to_float (get "f") = Some 1.5);
  Alcotest.(check bool) "int as float" true (Json.to_float (get "n") = Some 3.0);
  Alcotest.(check (option string)) "string" (Some "x") (Json.to_str (get "s"));
  Alcotest.(check (option bool)) "bool" (Some true) (Json.to_bool (get "b"));
  Alcotest.(check int) "list" 1 (List.length (Option.get (Json.to_list (get "l"))));
  Alcotest.(check bool) "missing member" true (Json.member "nope" v = None);
  Alcotest.(check (option int)) "wrong type" None (Json.to_int (get "s"))

(* ------------------------------------------------------------------ *)
(* Wire framing                                                        *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  with_socketpair (fun a b ->
      (* two back-to-back frames: boundaries come from the prefix, not
         from read granularity *)
      let small =
        [ Json.Obj [ ("cmd", Json.String "status"); ("id", Json.Int 7) ]; Json.List [] ]
      in
      List.iter (Wire.write a) small;
      List.iter
        (fun sent ->
          Alcotest.(check string) "frame round-trips" (Json.to_string sent)
            (Json.to_string (Wire.read b)))
        small;
      (* a frame bigger than one read(2) call returns *)
      let big = Json.String (String.make 100_000 'x') in
      Wire.write a big;
      Alcotest.(check string) "large frame round-trips" (Json.to_string big)
        (Json.to_string (Wire.read b)))

let test_wire_eof_is_closed () =
  with_socketpair (fun a b ->
      Unix.close a;
      match Wire.read b with
      | _ -> Alcotest.fail "read from closed peer succeeded"
      | exception Wire.Closed -> ())

let test_wire_truncation_is_protocol_error () =
  with_socketpair (fun a b ->
      (* A length prefix promising 100 bytes, then EOF after 3. *)
      let buf = Bytes.create 7 in
      Bytes.set_int32_be buf 0 100l;
      Bytes.blit_string "abc" 0 buf 4 3;
      ignore (Unix.write a buf 0 7);
      Unix.close a;
      match Wire.read b with
      | _ -> Alcotest.fail "truncated frame accepted"
      | exception Wire.Protocol_error _ -> ())

let test_wire_oversized_frame_rejected () =
  with_socketpair (fun a b ->
      let buf = Bytes.create 4 in
      Bytes.set_int32_be buf 0 (Int32.of_int (Wire.max_frame + 1));
      ignore (Unix.write a buf 0 4);
      match Wire.read b with
      | _ -> Alcotest.fail "oversized frame accepted"
      | exception Wire.Protocol_error _ -> ())

let test_wire_bad_payload_is_protocol_error () =
  with_socketpair (fun a b ->
      let payload = "not json at all" in
      let n = String.length payload in
      let buf = Bytes.create (4 + n) in
      Bytes.set_int32_be buf 0 (Int32.of_int n);
      Bytes.blit_string payload 0 buf 4 n;
      ignore (Unix.write a buf 0 (4 + n));
      match Wire.read b with
      | _ -> Alcotest.fail "unparseable payload accepted"
      | exception Wire.Protocol_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Job descriptors                                                     *)

let sample_info =
  {
    Job.id = 3;
    spec =
      {
        Job.bench = "cg";
        mode = Job.Sample { fraction = 0.25; seed = 99 };
        shard_size = 128;
        fuel = Some 1000;
        model = Ftb_inject.Models.default_spec;
        priority = 2;
        trust_cache = true;
      };
    status = Job.Failed "worker died";
    counts = { Job.cases_done = 10; cases_total = 40; masked = 6; sdc = 3; crash = 1 };
    submitted = 1700000000.5;
    started = Some 1700000001.5;
    finished = None;
    idem = Some "client-key-1";
    cache = Job.Cache_none;
  }

let test_job_spec_roundtrip () =
  let specs =
    [
      Job.default_spec ~bench:"cg";
      { (Job.default_spec ~bench:"lu") with Job.fuel = None; priority = -3 };
      sample_info.Job.spec;
    ]
  in
  List.iter
    (fun spec ->
      let back = Job.spec_of_json (Job.spec_to_json spec) in
      Alcotest.(check bool) "spec round-trips" true (back = spec))
    specs

let test_job_info_roundtrip () =
  let infos =
    [
      sample_info;
      { sample_info with Job.status = Job.Queued; started = None };
      { sample_info with Job.status = Job.Running };
      { sample_info with Job.status = Job.Completed; finished = Some 1700000009. };
      { sample_info with Job.status = Job.Cancelled };
      { sample_info with Job.status = Job.Stuck; idem = None };
      { sample_info with Job.status = Job.Completed; cache = Job.Cache_full };
      { sample_info with Job.status = Job.Completed; cache = Job.Cache_partial };
    ]
  in
  List.iter
    (fun info ->
      let back = Job.info_of_json (Job.info_to_json info) in
      Alcotest.(check bool)
        (Printf.sprintf "info round-trips (%s)" (Job.status_name info.Job.status))
        true (back = info))
    infos

let test_job_spec_validation () =
  let rejects json =
    match Job.spec_of_json (Json.of_string json) with
    | _ -> Alcotest.fail (Printf.sprintf "accepted %s" json)
    | exception Job.Decode_error _ -> ()
  in
  List.iter rejects
    [
      {|{"mode":"exhaustive","shard_size":64,"priority":0}|} (* no bench *);
      {|{"bench":"cg","mode":"exhaustive","shard_size":0,"priority":0}|};
      {|{"bench":"cg","mode":"exhaustive","shard_size":64,"fuel":0,"priority":0}|};
      {|{"bench":"cg","mode":"sample","fraction":0.0,"seed":1,"shard_size":64,"priority":0}|};
      {|{"bench":"cg","mode":"sample","fraction":1.5,"seed":1,"shard_size":64,"priority":0}|};
      {|{"bench":"cg","mode":"warp","shard_size":64,"priority":0}|};
    ]

let test_job_save_load_all () =
  let state_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_service_jobs_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists state_dir then rm state_dir;
  let job id status = { sample_info with Job.id; status } in
  Job.save ~state_dir (job 5 Job.Queued);
  Job.save ~state_dir (job 1 Job.Completed);
  Job.save ~state_dir (job 9 Job.Running);
  (* a half-created job directory must not brick loading *)
  Unix.mkdir (Filename.concat state_dir "jobs/garbage") 0o755;
  let oc = open_out (Filename.concat state_dir "jobs/9/stray.txt") in
  output_string oc "not a descriptor";
  close_out oc;
  let loaded = Job.load_all ~state_dir in
  Alcotest.(check (list int)) "sorted by id, garbage skipped" [ 1; 5; 9 ]
    (List.map (fun (i : Job.info) -> i.Job.id) loaded);
  rm state_dir

(* ------------------------------------------------------------------ *)
(* Bounded priority queue                                              *)

let queued id priority =
  {
    sample_info with
    Job.id;
    status = Job.Queued;
    spec = { sample_info.Job.spec with Job.priority };
  }

let ids q = List.map (fun (i : Job.info) -> i.Job.id) (Job_queue.to_list q)

let test_queue_priority_order () =
  let q = Job_queue.create ~capacity:10 in
  List.iter
    (fun (id, prio) ->
      match Job_queue.add q (queued id prio) with
      | Ok () -> ()
      | Error (`Full _) -> Alcotest.fail "queue full under capacity")
    [ (1, 0); (2, 5); (3, 0); (4, 5); (5, -1) ];
  (* highest priority first, FIFO (lowest id) within a priority *)
  Alcotest.(check (list int)) "dispatch order" [ 2; 4; 1; 3; 5 ] (ids q);
  Alcotest.(check bool) "pop follows order" true
    ((Option.get (Job_queue.pop q)).Job.id = 2);
  Alcotest.(check (list int)) "pop removed the head" [ 4; 1; 3; 5 ] (ids q)

let test_queue_backpressure () =
  let q = Job_queue.create ~capacity:2 in
  Alcotest.(check bool) "first add" true (Job_queue.add q (queued 1 0) = Ok ());
  Alcotest.(check bool) "second add" true (Job_queue.add q (queued 2 0) = Ok ());
  (match Job_queue.add q (queued 3 0) with
  | Error (`Full capacity) -> Alcotest.(check int) "reports its bound" 2 capacity
  | Ok () -> Alcotest.fail "grew past capacity");
  (* restore bypasses the bound: restart re-queue must never drop jobs *)
  Job_queue.restore q (queued 4 9);
  Alcotest.(check int) "restored over capacity" 3 (Job_queue.length q);
  Alcotest.(check bool) "restored job dispatches first" true
    ((Option.get (Job_queue.pop q)).Job.id = 4)

let test_queue_remove () =
  let q = Job_queue.create ~capacity:5 in
  List.iter (fun id -> ignore (Job_queue.add q (queued id 0))) [ 1; 2; 3 ];
  Alcotest.(check bool) "remove hits" true
    (match Job_queue.remove q 2 with Some i -> i.Job.id = 2 | None -> false);
  Alcotest.(check bool) "remove misses" true (Job_queue.remove q 2 = None);
  Alcotest.(check (list int)) "survivors keep their order" [ 1; 3 ] (ids q)

let test_queue_rejects_bad_capacity () =
  match Job_queue.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 accepted"
  | exception Invalid_argument _ -> ()

let test_queue_restore_all_respects_bound () =
  (* Restart re-queueing is capped: the jobs that would dispatch first
     survive, the overflow comes back for the caller to fail. *)
  let q = Job_queue.create ~capacity:3 in
  let overflow =
    Job_queue.restore_all q
      [ queued 1 0; queued 2 5; queued 3 0; queued 4 5; queued 5 (-1) ]
  in
  Alcotest.(check int) "queue filled to capacity" 3 (Job_queue.length q);
  Alcotest.(check (list int)) "best dispatch order kept" [ 2; 4; 1 ] (ids q);
  Alcotest.(check (list int)) "worst dispatch order evicted" [ 3; 5 ]
    (List.map (fun (i : Job.info) -> i.Job.id) overflow);
  (* A partially filled queue only takes the difference. *)
  let q2 = Job_queue.create ~capacity:2 in
  (match Job_queue.add q2 (queued 9 0) with Ok () -> () | Error _ -> assert false);
  let overflow2 = Job_queue.restore_all q2 [ queued 1 0; queued 2 0 ] in
  Alcotest.(check int) "one slot left, one taken" 2 (Job_queue.length q2);
  Alcotest.(check (list int)) "later FIFO entry evicted" [ 2 ]
    (List.map (fun (i : Job.info) -> i.Job.id) overflow2)

(* ------------------------------------------------------------------ *)
(* Fuzz: JSON codec and wire framing                                   *)

(* Random JSON value trees, biased toward the codec's hard cases:
   escape-heavy strings (controls, quotes, non-ASCII bytes that decode as
   UTF-8 from \u escapes, astral code points = surrogate pairs) and float
   edges (negative zero, subnormals, huge magnitudes, non-finite). *)
let gen_json =
  let open QCheck.Gen in
  let scalar_string =
    let special =
      oneofl
        [ ""; "\""; "\\"; "\n\t\r"; "\001\031"; "caf\xc3\xa9"; "\xf0\x9f\x98\x80";
          "a\"b\\c\nd"; String.make 65 '\\' ]
    in
    oneof [ special; string_size ~gen:printable (int_bound 12) ]
  in
  let scalar_float =
    oneofl
      [ 0.; -0.; 1.5; -1.25e-9; 3.141592653589793; 1e308; -1e-308;
        4.94e-324 (* min subnormal *); infinity; neg_infinity; Float.nan ]
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) (oneof [ small_signed_int; int ]);
        map (fun f -> Json.Float f) scalar_float;
        map (fun s -> Json.String s) scalar_string;
      ]
  in
  let rec tree depth =
    if depth = 0 then scalar
    else
      frequency
        [
          (3, scalar);
          (1, map (fun l -> Json.List l) (list_size (int_bound 4) (tree (depth - 1))));
          ( 1,
            map
              (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4)
                 (pair scalar_string (tree (depth - 1)))) );
        ]
  in
  tree 3

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Int x, Json.Int y -> x = y
  (* Ints may decode as floats and floats with integral values as ints;
     the codec's contract is numeric, not representational. *)
  | (Json.Int _ | Json.Float _), (Json.Int _ | Json.Float _) ->
      let f = function Json.Int i -> float_of_int i | Json.Float f -> f | _ -> 0. in
      let x = f a and y = f b in
      (Float.is_nan x && Float.is_nan y) || Int64.bits_of_float x = Int64.bits_of_float y
  | Json.String x, Json.String y -> x = y
  (* Non-finite floats deliberately encode as sentinel strings. *)
  | Json.Float f, Json.String s | Json.String s, Json.Float f ->
      (Float.is_nan f && s = "nan")
      || (f = infinity && s = "inf")
      || (f = neg_infinity && s = "-inf")
  | Json.List x, Json.List y ->
      List.length x = List.length y && List.for_all2 json_equal x y
  | Json.Obj x, Json.Obj y ->
      List.length x = List.length y
      && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_equal v v') x y
  | _ -> false

let fuzz_json_roundtrip =
  QCheck.Test.make ~name:"fuzzed json value trees round-trip" ~count:500
    (QCheck.make gen_json) (fun v -> json_equal v (roundtrip v))

let fuzz_wire_split_boundaries =
  (* Frames survive arbitrary write fragmentation: send several frames
     through a socketpair in randomly sized chunks (down to single bytes)
     and require the reader to reassemble every frame intact. *)
  QCheck.Test.make ~name:"wire framing survives random split boundaries" ~count:60
    QCheck.(pair (list_of_size (Gen.int_range 1 4) (make gen_json)) (int_range 1 17))
    (fun (values, chunk) ->
      with_socketpair (fun a b ->
          let buf = Buffer.create 256 in
          List.iter
            (fun v ->
              let payload = Json.to_string v in
              let n = String.length payload in
              let prefix = Bytes.create 4 in
              Bytes.set_int32_be prefix 0 (Int32.of_int n);
              Buffer.add_bytes buf prefix;
              Buffer.add_string buf payload)
            values;
          let raw = Buffer.contents buf in
          let writer =
            Thread.create
              (fun () ->
                let off = ref 0 in
                while !off < String.length raw do
                  let len = min chunk (String.length raw - !off) in
                  let written = Unix.write_substring a raw !off len in
                  off := !off + written
                done;
                Unix.close a)
              ()
          in
          let result =
            List.for_all (fun sent -> json_equal sent (Wire.read b)) values
            && match Wire.read b with
               | _ -> false (* stream must end after the last frame *)
               | exception Wire.Closed -> true
          in
          Thread.join writer;
          result))

(* ------------------------------------------------------------------ *)
(* Watch: no event lost between the snapshot and the subscription       *)

(* Watchers attach at staggered moments while a job streams. Each must
   see its snapshot and then exactly the progress events of the waves
   after it, with strictly increasing seqs, up to the final frame. The
   job's waves take a short pause each, and the runner records the
   cumulative shard count after every wave: with one case per shard,
   that is the [cases_done] its progress event carries. *)
let test_watch_sees_every_event_after_its_snapshot () =
  let module Server = Ftb_service.Server in
  let module Client = Ftb_service.Client in
  let module Engine = Ftb_campaign.Engine in
  let state_dir = Filename.temp_dir "ftb_watch_gapfree" "" in
  let boundaries = ref [] and done_so_far = ref 0 in
  let runner =
    {
      Engine.wave_size = (fun () -> 1);
      run_wave =
        (fun tasks ~commit:_ ~run_local ->
          Thread.delay 0.02;
          let results =
            Array.to_list
              (Array.map
                 (fun (task : Engine.shard_task) ->
                   run_local ~lo:task.Engine.lo ~hi:task.Engine.hi;
                   (task.Engine.shard, Ok ()))
                 tasks)
          in
          done_so_far := !done_so_far + Array.length tasks;
          boundaries := !done_so_far :: !boundaries;
          results);
    }
  in
  let t =
    Server.create
      {
        (Server.default_config ~state_dir) with
        Server.resolve = (fun _ -> Helpers.linear_program ());
        resolve_ir = (fun _ -> None);
        cache = false;
        wave_runner = Some (fun ~job_id:_ ~bench:_ ~fuel:_ ~model:_ ~golden:_ -> Some runner);
      }
  in
  Server.start t;
  let connect () =
    let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    ignore (Thread.create (fun () -> Server.serve_connection t theirs) () : Thread.t);
    Client.of_fd mine
  in
  let client = connect () in
  let id =
    match Client.submit client { (Job.default_spec ~bench:"linear") with Job.shard_size = 1 } with
    | Ok id -> id
    | Error e -> Alcotest.fail e.Client.message
  in
  let watchers = 8 in
  let seen = Array.make watchers [] and finals = Array.make watchers None in
  let threads =
    List.init watchers (fun i ->
        Thread.create
          (fun () ->
            Thread.delay (0.015 *. float_of_int i);
            let c = connect () in
            let on_event = function
              | Client.Progress { seq; cases_done; _ } -> seen.(i) <- (seq, cases_done) :: seen.(i)
              | Client.Round _ | Client.Worker_quarantined _ -> ()
            in
            finals.(i) <- Some (Client.watch ~on_event c id);
            Client.close c)
          ())
  in
  List.iter Thread.join threads;
  let boundaries = List.rev !boundaries in
  Array.iteri
    (fun i events ->
      let label what = Printf.sprintf "watcher %d: %s" i what in
      (match finals.(i) with
      | Some (Ok job) -> Alcotest.(check bool) (label "completed") true (job.Job.status = Job.Completed)
      | _ -> Alcotest.fail (label "no final frame"));
      match List.rev events with
      | [] -> Alcotest.fail (label "no snapshot")
      | (_, snapshot) :: rest as all ->
          ignore
            (List.fold_left
               (fun prev (seq, _) ->
                 Alcotest.(check bool) (label "seqs strictly increase") true (seq > prev);
                 seq)
               0 all);
          Alcotest.(check (list int)) (label "every wave after the snapshot, in order")
            (List.filter (fun n -> n > snapshot) boundaries)
            (List.map snd rest))
    seen;
  (match Client.shutdown client with Ok () -> () | Error e -> Alcotest.fail e.Client.message);
  Server.join t;
  Client.close client

let suite =
  [
    Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
    Alcotest.test_case "watch sees every event after its snapshot" `Quick
      test_watch_sees_every_event_after_its_snapshot;
    Alcotest.test_case "json unicode escapes" `Quick test_json_unicode_escapes;
    Alcotest.test_case "json non-finite floats" `Quick test_json_nonfinite_floats;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "json accessors" `Quick test_json_accessors;
    Alcotest.test_case "wire round-trip" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire EOF is Closed" `Quick test_wire_eof_is_closed;
    Alcotest.test_case "wire truncation is protocol error" `Quick
      test_wire_truncation_is_protocol_error;
    Alcotest.test_case "wire oversized frame rejected" `Quick
      test_wire_oversized_frame_rejected;
    Alcotest.test_case "wire bad payload is protocol error" `Quick
      test_wire_bad_payload_is_protocol_error;
    Alcotest.test_case "job spec round-trip" `Quick test_job_spec_roundtrip;
    Alcotest.test_case "job info round-trip" `Quick test_job_info_roundtrip;
    Alcotest.test_case "job spec validation" `Quick test_job_spec_validation;
    Alcotest.test_case "job save/load_all" `Quick test_job_save_load_all;
    Alcotest.test_case "queue priority order" `Quick test_queue_priority_order;
    Alcotest.test_case "queue backpressure" `Quick test_queue_backpressure;
    Alcotest.test_case "queue remove" `Quick test_queue_remove;
    Alcotest.test_case "queue rejects bad capacity" `Quick
      test_queue_rejects_bad_capacity;
    Alcotest.test_case "queue restore_all respects bound" `Quick
      test_queue_restore_all_respects_bound;
    Helpers.qcheck_to_alcotest fuzz_json_roundtrip;
    Helpers.qcheck_to_alcotest fuzz_wire_split_boundaries;
  ]
