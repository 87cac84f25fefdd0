(* Chaos drill (dune alias @chaos-smoke).

   Randomized fault schedules against a real daemon process: every
   schedule throws some combination of faults at one exhaustive campaign
   — SIGKILL at a random shard-wave boundary, a byte flipped or the file
   truncated inside the on-disk checkpoint, a torn [.tmp] from a write
   that never finished, truncated or garbage wire frames from a hostile
   client, a watcher that disconnects mid-stream, and a resubmission
   whose first ACK was dropped — and then requires the daemon to
   converge to outcome bytes bit-identical to the direct serial
   campaign. At least one schedule exercises quarantine-and-rebuild of a
   corrupt checkpoint and at least one exercises idempotent resubmit;
   the drill asserts both actually happened.

   The daemon forks happen before the parent touches any domain pool
   (worker domains do not survive fork()); the parent only ever runs the
   serial golden and ground-truth campaigns. *)

module Ctx = Ftb_trace.Ctx
module Static = Ftb_trace.Static
module Program = Ftb_trace.Program
module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Checkpoint = Ftb_campaign.Checkpoint
module Json = Ftb_service.Json
module Wire = Ftb_service.Wire
module Job = Ftb_service.Job
module Client = Ftb_service.Client
module Server = Ftb_service.Server
module Rng = Ftb_util.Rng

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

(* Small damped fixed-point program: 53 sites, 3392 cases — big enough
   that a kill at wave 2 of ~106 lands mid-campaign, small enough that a
   schedule takes well under a second of campaign time. *)
let program =
  let statics = Static.create_table () in
  let tag_load = Static.register statics ~phase:"chaos.load" ~label:"x[i]" in
  let tag_iter = Static.register statics ~phase:"chaos.iter" ~label:"x[i] update" in
  let tag_out = Static.register statics ~phase:"chaos.out" ~label:"sum" in
  let body ctx =
    let x =
      Array.map (fun v -> Ctx.record ctx ~tag:tag_load v) [| 1.0; 2.0; 3.0; 4.0 |]
    in
    for _iter = 1 to 12 do
      for i = 0 to 3 do
        let left = x.((i + 3) mod 4) and right = x.((i + 1) mod 4) in
        x.(i) <- Ctx.record ctx ~tag:tag_iter ((x.(i) +. (0.25 *. (left +. right))) /. 1.5)
      done
    done;
    [| Ctx.record ctx ~tag:tag_out (Array.fold_left ( +. ) 0. x) |]
  in
  Program.make ~name:"chaos.bench" ~description:"damped fixed-point iteration"
    ~tolerance:0.05 ~statics body

let resolve = function
  | "chaos.bench" -> program
  | name -> invalid_arg (Printf.sprintf "unknown benchmark %S" name)

let fuel = 10_000
let shard_size = 32

let fresh_dir tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_chaos_%s_%d" tag (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists path then rm path;
  Unix.mkdir path 0o755;
  path

let spawn_daemon config sock =
  match Unix.fork () with
  | 0 ->
      (match Server.run ~socket:sock (Server.create config) with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let connect_with_retry sock =
  let rec go attempts =
    match Client.connect ~socket:sock with
    | client -> client
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempts > 0 ->
        ignore (Unix.select [] [] [] 0.05);
        go (attempts - 1)
  in
  go 200

let raw_connect sock =
  let rec go attempts =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempts > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        ignore (Unix.select [] [] [] 0.05);
        go (attempts - 1)
  in
  go 200

(* ------------------------------------------------------------------ *)
(* Fault schedules                                                     *)

type corruption = No_corruption | Flip_byte | Truncate | Torn_tmp

type schedule = {
  seed : int;
  kill_threshold : int option;
      (* SIGKILL once this many shard waves have completed *)
  corruption : corruption;  (* applied to the checkpoint after a kill *)
  garbage_client : bool;  (* hostile client speaks broken frames *)
  midstream_disconnect : bool;  (* a watcher vanishes mid-stream *)
  dropped_ack_resubmit : bool;  (* idempotent resubmit after lost ACK *)
  model : Models.spec;  (* the campaign's fault model *)
}

let describe s =
  Printf.sprintf "seed=%d kill=%s corrupt=%s garbage=%b vanish=%b resubmit=%b model=%s"
    s.seed
    (match s.kill_threshold with Some k -> string_of_int k | None -> "no")
    (match s.corruption with
    | No_corruption -> "no"
    | Flip_byte -> "flip"
    | Truncate -> "trunc"
    | Torn_tmp -> "torn-tmp")
    s.garbage_client s.midstream_disconnect s.dropped_ack_resubmit
    (Models.spec_to_string s.model)

let random_schedule seed =
  let rng = Rng.create ~seed in
  let kill_threshold = if Rng.float rng 1.0 < 0.75 then Some (1 + Rng.int rng 8) else None in
  {
    seed;
    kill_threshold;
    corruption =
      (if kill_threshold = None then No_corruption
       else
         match Rng.int rng 4 with
         | 0 -> Flip_byte
         | 1 -> Truncate
         | 2 -> Torn_tmp
         | _ -> No_corruption);
    garbage_client = Rng.bool rng;
    midstream_disconnect = Rng.bool rng;
    dropped_ack_resubmit = Rng.bool rng;
    model = Models.default_spec;
  }

(* Hand-picked schedules pin down the coverage the drill promises: a
   quarantine-and-rebuild, a truncation, a torn tmp, an idempotent
   resubmit, a kitchen-sink run, and a kill-plus-corruption pass under
   each non-default fault model (the daemon must converge bit-identically
   to the serial campaign under the *same* model, including across a
   restart-resume of a stochastic model). The rest is randomized. *)
let forced =
  let default = Models.default_spec in
  [
    { seed = 1001; kill_threshold = Some 2; corruption = Flip_byte;
      garbage_client = false; midstream_disconnect = false; dropped_ack_resubmit = false;
      model = default };
    { seed = 1002; kill_threshold = Some 2; corruption = Truncate;
      garbage_client = false; midstream_disconnect = false; dropped_ack_resubmit = false;
      model = default };
    { seed = 1003; kill_threshold = Some 3; corruption = Torn_tmp;
      garbage_client = false; midstream_disconnect = false; dropped_ack_resubmit = false;
      model = default };
    { seed = 1004; kill_threshold = None; corruption = No_corruption;
      garbage_client = false; midstream_disconnect = false; dropped_ack_resubmit = true;
      model = default };
    { seed = 1005; kill_threshold = Some 4; corruption = Flip_byte;
      garbage_client = true; midstream_disconnect = true; dropped_ack_resubmit = true;
      model = default };
    { seed = 2001; kill_threshold = Some 2; corruption = Flip_byte;
      garbage_client = false; midstream_disconnect = false; dropped_ack_resubmit = false;
      model = { Models.model = Models.Bit_flip_32; seed = 0 } };
    { seed = 2002; kill_threshold = Some 2; corruption = No_corruption;
      garbage_client = false; midstream_disconnect = true; dropped_ack_resubmit = false;
      model = { Models.model = Models.Random_value { lo = -50.; hi = 50. }; seed = 7 } };
  ]

let schedules = forced @ List.init 17 (fun i -> random_schedule (i + 1))

(* ------------------------------------------------------------------ *)
(* Fault injectors                                                     *)

let send_garbage rng sock =
  (* Either a length prefix promising a frame that never arrives, or an
     oversized length, or plain non-frame bytes. The daemon must shrug
     all three off. *)
  let fd = raw_connect sock in
  (try
     match Rng.int rng 3 with
     | 0 ->
         let buf = Bytes.create 7 in
         Bytes.set_int32_be buf 0 500l;
         Bytes.blit_string "abc" 0 buf 4 3;
         ignore (Unix.write fd buf 0 7)
     | 1 ->
         let buf = Bytes.create 4 in
         Bytes.set_int32_be buf 0 (Int32.of_int (Wire.max_frame + 1));
         ignore (Unix.write fd buf 0 4)
     | _ ->
         let s = "\xde\xad\xbe\xef not a frame" in
         ignore (Unix.write_substring fd s 0 (String.length s))
   with Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ())

let submit_and_drop_ack sock ~idem spec =
  (* The submission frame goes out, then the connection dies before the
     ACK comes back — the client can never know whether the job was
     created. The later keyed resubmission must be safe either way. *)
  let fd = raw_connect sock in
  Wire.write fd
    (Json.Obj
       [
         ("cmd", Json.String "submit");
         ("idem", Json.String idem);
         ("spec", Job.spec_to_json spec);
       ]);
  try Unix.close fd with Unix.Unix_error _ -> ()

let corrupt_checkpoint rng kind path =
  match kind with
  | No_corruption -> false
  | _ when not (Sys.file_exists path) -> false
  | Flip_byte ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let raw = really_input_string ic n in
      close_in ic;
      let bytes = Bytes.of_string raw in
      (* anywhere in the file: header, manifest or outcome bytes alike *)
      let pos = Rng.int rng n in
      Bytes.set bytes pos (Char.chr (Char.code (Bytes.get bytes pos) lxor 0x40));
      let oc = open_out_bin path in
      output_bytes oc bytes;
      close_out oc;
      true
  | Truncate ->
      let n = (Unix.stat path).Unix.st_size in
      Unix.truncate path (max 1 (n / 2));
      true
  | Torn_tmp ->
      (* a crash mid-write leaves a partial temp file behind; it must be
         ignored (and eventually overwritten) on recovery *)
      let oc = open_out_bin (path ^ ".tmp") in
      output_string oc "torn write, never renamed";
      close_out oc;
      true

(* ------------------------------------------------------------------ *)
(* One schedule, end to end                                            *)

let quarantines = ref 0
let resubmits = ref 0

let run_schedule reference_for idx s =
  let reference : Ground_truth.t = reference_for s.model in
  let rng = Rng.create ~seed:(s.seed * 7919) in
  let state_dir = fresh_dir (Printf.sprintf "drill%02d" idx) in
  let sock = Filename.concat state_dir "daemon.sock" in
  let config =
    {
      (Server.default_config ~state_dir) with
      Server.domains = 2;
      checkpoint_every = 1;
      resolve;
    }
  in
  let spec =
    { (Job.default_spec ~bench:"chaos.bench") with
      Job.shard_size;
      fuel = Some fuel;
      model = s.model;
    }
  in
  let idem = Printf.sprintf "drill-%d" s.seed in
  let pid = ref (spawn_daemon config sock) in

  if s.dropped_ack_resubmit then submit_and_drop_ack sock ~idem spec;
  if s.garbage_client then send_garbage rng sock;

  (* Submit (deduping against the dropped-ACK attempt, if any) and watch
     until either completion or the scheduled kill. *)
  let client = connect_with_retry sock in
  let id =
    match Client.submit ~idem client spec with
    | Ok id -> id
    | Error e -> failwith (Printf.sprintf "submit: %s: %s" e.Client.code e.Client.message)
  in
  let killed = ref false in
  (match s.kill_threshold with
  | None -> (
      match Client.watch client id with Ok _ | Error _ -> () | exception _ -> ())
  | Some k -> (
      match
        Client.watch client id ~on_event:(function
          | Client.Progress { shards_done; cases_done; cases_total; _ } ->
              if (not !killed) && shards_done >= k && (cases_total = 0 || cases_done < cases_total)
              then begin
                killed := true;
                Unix.kill !pid Sys.sigkill
              end
          | Client.Round _ | Client.Worker_quarantined _ -> ())
      with
      | Ok _ | Error _ -> ()
      | exception (Wire.Closed | Wire.Protocol_error _) -> ()
      | exception Unix.Unix_error _ -> ()));
  (try Client.close client with _ -> ());

  let corrupted = ref false in
  if !killed then begin
    ignore (Unix.waitpid [] !pid);
    (* The daemon is dead; sabotage its durable state before restart. *)
    let ckpt = Job.checkpoint_path ~state_dir id in
    corrupted := corrupt_checkpoint rng s.corruption ckpt;
    if !corrupted && (s.corruption = Flip_byte || s.corruption = Truncate) then
      incr quarantines;
    pid := spawn_daemon config sock
  end;

  if s.garbage_client then send_garbage rng sock;
  if s.dropped_ack_resubmit then begin
    (* Replay the whole submission as a retrying client would after a
       lost ACK; the key must map it to the same job, even across the
       daemon restart. *)
    let c = connect_with_retry sock in
    (match Client.submit ~idem c spec with
    | Ok id' ->
        if id' = id then incr resubmits
        else check (Printf.sprintf "schedule %d: resubmit deduped" idx) false
    | Error e ->
        check
          (Printf.sprintf "schedule %d: resubmit accepted (%s)" idx e.Client.code)
          false);
    Client.close c
  end;

  (* A watcher that vanishes mid-stream must not wedge anything. *)
  if s.midstream_disconnect then begin
    let fd = raw_connect sock in
    Wire.write fd (Json.Obj [ ("cmd", Json.String "watch"); ("id", Json.Int id) ]);
    (try ignore (Wire.read fd : Json.t) with _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  end;

  (* Convergence: the job completes and its outcome bytes are
     bit-identical to the direct serial campaign. *)
  let client2 = connect_with_retry sock in
  let final =
    match Client.watch client2 id with
    | Ok job -> Some job
    | Error e ->
        check (Printf.sprintf "schedule %d: final watch (%s)" idx e.Client.code) false;
        None
    | exception e ->
        check (Printf.sprintf "schedule %d: final watch (%s)" idx (Printexc.to_string e))
          false;
        None
  in
  let golden = Golden.run program in
  let identical =
    match final with
    | Some job when job.Job.status = Job.Completed -> (
        match
          Checkpoint.load ~model:s.model
            ~path:(Job.checkpoint_path ~state_dir id)
            ~shard_size golden
        with
        | state ->
            Checkpoint.is_complete state
            && Bytes.equal reference.Ground_truth.outcomes state.Checkpoint.outcomes
        | exception _ -> false)
    | Some _ | None -> false
  in
  check (Printf.sprintf "schedule %2d converged bit-identical [%s]" idx (describe s))
    identical;
  (if !corrupted && (s.corruption = Flip_byte || s.corruption = Truncate) then
     let qdir = Filename.concat (Job.dir ~state_dir id) "quarantine" in
     check
       (Printf.sprintf "schedule %2d quarantined the corrupt checkpoint" idx)
       (Sys.file_exists qdir && Array.length (Sys.readdir qdir) > 0));

  (match Client.shutdown client2 with Ok () -> () | Error _ -> ());
  (try Client.close client2 with _ -> ());
  (match Unix.waitpid [] !pid with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> check (Printf.sprintf "schedule %d: daemon exited cleanly" idx) false)

(* ------------------------------------------------------------------ *)
(* Bit-flipping-worker schedule: a fleet campaign under bit-flip-32 with
   a worker that silently corrupts its outcome bytes before digesting
   them, SIGKILLed daemon mid-campaign and restarted. The wave-end audit
   adjudicates every wave before the engine persists it, so the resumed
   checkpoint never inherits a lie; whichever daemon incarnation finishes
   a wave containing the liar's commits convicts it, and the campaign
   still converges bit-identical to the serial bit-flip-32 oracle. *)

module Fleet = Ftb_dist.Fleet
module Worker = Ftb_dist.Worker

let fleet_lease_ttl = 0.5

let spawn_audit_daemon ~state_dir sock =
  match Unix.fork () with
  | 0 ->
      let fleet =
        Fleet.create ~lease_ttl:fleet_lease_ttl ~audit_rate:1.0 ~quarantine_after:1 ()
      in
      let config =
        {
          (Server.default_config ~state_dir) with
          Server.domains = 1;
          checkpoint_every = 1;
          resolve;
          extension = Some (Fleet.extension fleet);
          wave_runner = Some (Fleet.wave_runner fleet);
        }
      in
      let t = Server.create config in
      Fleet.set_on_quarantine fleet (fun ~name ~disputes ->
          Server.notify_quarantine t ~worker:name ~disputes);
      (match Server.run ~socket:sock t with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let tamper_outcomes ~bench:_ ~shard:_ b =
  (* Every corrupted byte stays a plausible outcome code; only the audit
     oracle can tell. *)
  Bytes.map (fun c -> if c = '\000' then '\001' else '\000') b

(* [gate]: the child waits (up to 30 s) for a byte on it before it
   attaches, so the schedule decides who is in the fleet when. *)
let spawn_fleet_worker ?tamper ?gate ~name sock ready_w =
  match Unix.fork () with
  | 0 ->
      Option.iter
        (fun gate ->
          match Unix.select [ gate ] [] [] 30.0 with
          | [ _ ], _, _ -> ignore (Unix.read gate (Bytes.create 1) 0 1)
          | _ -> ())
        gate;
      let signalled = ref false in
      let log _msg =
        if not !signalled then begin
          signalled := true;
          ignore (Unix.write ready_w (Bytes.make 1 'r') 0 1)
        end
      in
      let cfg =
        Worker.config ~domains:1 ~resolve ~log ~name ?tamper (fun () ->
            raw_connect sock)
      in
      (match Worker.run cfg with
      | (_ : Worker.stats) -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let lying_fleet_drill () =
  let state_dir = fresh_dir "fleetliar" in
  let sock = Filename.concat state_dir "daemon.sock" in
  let model = { Models.model = Models.Bit_flip_32; seed = 0 } in
  let ready_r, ready_w = Unix.pipe () in
  let spawn_crew generation =
    [
      spawn_fleet_worker ~name:(Printf.sprintf "honest-a%d" generation) sock ready_w;
      spawn_fleet_worker ~name:(Printf.sprintf "honest-b%d" generation) sock ready_w;
      spawn_fleet_worker ~tamper:tamper_outcomes ~name:"liar" sock ready_w;
    ]
  in
  let await_crew ?(workers = 3) what =
    let ok = ref true in
    for _ = 1 to workers do
      match Unix.select [ ready_r ] [] [] 30.0 with
      | [ _ ], _, _ -> ignore (Unix.read ready_r (Bytes.create 1) 0 1)
      | _ -> ok := false
    done;
    check what !ok
  in
  let quarantined = ref [] in
  let daemon = ref (spawn_audit_daemon ~state_dir sock) in
  (* The first crew attaches in order: the liar alone, and the honest
     pair only once the liar is producing its first shard — the gate
     opens from inside the liar's tamper hook. The liar tells the truth
     until the client's watch is subscribed (a byte on [watch_r], sent on
     the first progress event after the snapshot, which only a subscriber
     gets): a quarantine event reaches only watchers already subscribed,
     and the first wave can end within milliseconds of the submit. The
     wave-end audit of its first lie convicts it, and the kill waits for
     that conviction: a kill racing that wave's audit would leave the
     conviction to the restarted daemon, whose resumed job starts before
     any worker attaches and so never leases a shard. *)
  let gate_r, gate_w = Unix.pipe () in
  let watch_r, watch_w = Unix.pipe () in
  let opened = ref false and lying = ref false in
  let liar_opening_gate ~bench ~shard b =
    if not !opened then begin
      opened := true;
      ignore (Unix.write gate_w (Bytes.make 2 'g') 0 2 : int)
    end;
    if not !lying then
      lying := (match Unix.select [ watch_r ] [] [] 0. with [ _ ], _, _ -> true | _ -> false);
    if !lying then tamper_outcomes ~bench ~shard b else b
  in
  let liar = spawn_fleet_worker ~tamper:liar_opening_gate ~name:"liar" sock ready_w in
  await_crew ~workers:1 "fleet-liar: first crew attached";
  let crew1 =
    liar
    :: List.map
         (fun name -> spawn_fleet_worker ~gate:gate_r ~name sock ready_w)
         [ "honest-a1"; "honest-b1" ]
  in

  let client = connect_with_retry sock in
  let spec =
    { (Job.default_spec ~bench:"chaos.bench") with
      Job.shard_size;
      fuel = Some fuel;
      model;
    }
  in
  let id =
    match Client.submit client spec with
    | Ok id -> id
    | Error e ->
        failwith (Printf.sprintf "fleet-liar submit: %s: %s" e.Client.code e.Client.message)
  in
  let killed = ref false and progress = ref 0 in
  (match
     Client.watch client id ~on_event:(function
       | Client.Round _ -> ()
       | Client.Progress { shards_done; cases_done; cases_total; _ } ->
           incr progress;
           if !progress = 2 then ignore (Unix.write watch_w (Bytes.make 1 'w') 0 1 : int);
           if
             (not !killed) && shards_done >= 2
             && (cases_total = 0 || cases_done < cases_total)
             && !quarantined <> []
           then begin
             (* Never kill the daemon under an honest worker that has
                not attached yet: it would fail to connect. *)
             await_crew ~workers:2 "fleet-liar: honest pair attached after the liar's first shard";
             killed := true;
             Unix.kill !daemon Sys.sigkill
           end
       | Client.Worker_quarantined { worker; _ } ->
           quarantined := worker :: !quarantined)
   with
  | Ok _ | Error _ -> ()
  | exception (Wire.Closed | Wire.Protocol_error _) -> ()
  | exception Unix.Unix_error _ -> ());
  (try Client.close client with _ -> ());
  check "fleet-liar: daemon SIGKILLed mid-campaign" !killed;
  (* A kill that never happened leaves the daemon serving: stop it, so
     the failed check reports instead of waiting on a live process. *)
  if not !killed then (try Unix.kill !daemon Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] !daemon);
  (* The daemon's death hangs up every worker connection; the whole crew
     exits cleanly (a quarantined liar already exited on its refused
     lease poll). *)
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> check "fleet-liar: first-crew worker exited cleanly" false)
    crew1;

  (* Restart: a fresh daemon (fresh in-memory fleet) resumes the job from
     the last audited checkpoint; a fresh crew — liar included — drains
     the remaining shards. *)
  daemon := spawn_audit_daemon ~state_dir sock;
  let crew2 = spawn_crew 2 in
  await_crew "fleet-liar: second crew attached";
  let client2 = connect_with_retry sock in
  let final =
    match
      Client.watch client2 id ~on_event:(function
        | Client.Progress _ | Client.Round _ -> ()
        | Client.Worker_quarantined { worker; _ } ->
            quarantined := worker :: !quarantined)
    with
    | Ok job -> Some job
    | Error e ->
        check (Printf.sprintf "fleet-liar: final watch (%s)" e.Client.code) false;
        None
    | exception e ->
        check (Printf.sprintf "fleet-liar: final watch (%s)" (Printexc.to_string e))
          false;
        None
  in
  check "fleet-liar: job completed across the restart"
    (match final with Some j -> j.Job.status = Job.Completed | None -> false);
  let golden = Golden.run program in
  let reference = Executor.ground_truth_model ~domains:1 ~fuel model golden in
  let identical =
    match
      Checkpoint.load ~model ~path:(Job.checkpoint_path ~state_dir id) ~shard_size
        golden
    with
    | state ->
        Checkpoint.is_complete state
        && Bytes.equal reference.Ground_truth.outcomes state.Checkpoint.outcomes
    | exception _ -> false
  in
  check "fleet-liar: bit-identical to the serial bit-flip-32 oracle" identical;
  check "fleet-liar: the liar was quarantined" (List.mem "liar" !quarantined);
  check "fleet-liar: no honest worker was quarantined"
    (List.for_all (fun w -> w = "liar") !quarantined);
  (match Client.shutdown client2 with Ok () -> () | Error _ -> ());
  (try Client.close client2 with _ -> ());
  (match Unix.waitpid [] !daemon with
  | _, Unix.WEXITED 0 -> ()
  | _, _ -> check "fleet-liar: daemon exited cleanly" false);
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _, _ -> check "fleet-liar: second-crew worker exited cleanly" false)
    crew2;
  List.iter Unix.close [ ready_r; ready_w; gate_r; gate_w; watch_r; watch_w ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let golden = Golden.run program in
  Printf.printf "chaos drill: %d sites, %d cases, %d schedules\n%!"
    (Golden.sites golden) (Golden.cases golden) (List.length schedules);
  let default_reference = Ground_truth.run ~fuel golden in
  (* Per-model serial references: the daemon must converge to these bytes
     whatever faults the schedule throws at it. [domains:1] keeps the
     parent pool-free (the daemon forks must not inherit worker domains). *)
  let reference_for (spec : Models.spec) =
    if Models.spec_equal spec Models.default_spec then default_reference
    else Executor.ground_truth_model ~domains:1 ~fuel spec golden
  in
  List.iteri (fun i s -> run_schedule reference_for i s) schedules;
  lying_fleet_drill ();
  check "at least one schedule exercised quarantine-and-rebuild" (!quarantines >= 1);
  check "at least one schedule exercised idempotent resubmit" (!resubmits >= 1);
  if !failures > 0 then begin
    Printf.printf "%d chaos check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "chaos drill passed"
