(* Service smoke test (dune alias @service-smoke).

   End-to-end drill of the campaign daemon:

   1. Crash/restart durability, with a real daemon process on a real
      Unix-domain socket: fork a daemon, submit an exhaustive campaign,
      SIGKILL the daemon mid-flight, restart it on the same state
      directory and require the job to resume from its checkpoint and
      converge to outcome bytes bit-identical to the plain serial
      campaign. The forks happen before the parent touches any domain
      pool, because a pool's worker domains do not survive fork().

   2. Protocol round-trip over a socketpair, daemon in-process: submit ->
      watch (>= 1 streamed progress event) -> complete with bit-identical
      bytes; then queue backpressure, cancellation of queued and running
      jobs, error codes, and a graceful shutdown drain.

   3. Sample jobs, daemon in-process: a bit-flip-64 sample job counts
      exactly what the propagation sampler counts on the same draw, and
      a kernel that raises [Failure] in one case still completes, with
      that case counted as a crash. *)

module Ctx = Ftb_trace.Ctx
module Static = Ftb_trace.Static
module Program = Ftb_trace.Program
module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run
module Checkpoint = Ftb_campaign.Checkpoint
module Json = Ftb_service.Json
module Wire = Ftb_service.Wire
module Job = Ftb_service.Job
module Client = Ftb_service.Client
module Server = Ftb_service.Server

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

(* Damped fixed-point iteration on a 4-vector, like campaign_smoke but
   with a tunable sweep count: "slow" is big enough (405 sites, ~26k
   cases) that a SIGKILL lands mid-campaign, "quick" finishes fast. *)
let make_program ~name ~iters =
  let statics = Static.create_table () in
  let tag_load = Static.register statics ~phase:"svc.load" ~label:"x[i]" in
  let tag_iter = Static.register statics ~phase:"svc.iter" ~label:"x[i] update" in
  let tag_out = Static.register statics ~phase:"svc.out" ~label:"sum" in
  let body ctx =
    let x =
      Array.map (fun v -> Ctx.record ctx ~tag:tag_load v) [| 1.0; 2.0; 3.0; 4.0 |]
    in
    for _iter = 1 to iters do
      for i = 0 to 3 do
        let left = x.((i + 3) mod 4) and right = x.((i + 1) mod 4) in
        x.(i) <- Ctx.record ctx ~tag:tag_iter ((x.(i) +. (0.25 *. (left +. right))) /. 1.5)
      done
    done;
    [| Ctx.record ctx ~tag:tag_out (Array.fold_left ( +. ) 0. x) |]
  in
  Program.make ~name ~description:"damped fixed-point iteration" ~tolerance:0.05
    ~statics body

let slow_program = make_program ~name:"svc.slow" ~iters:100
let quick_program = make_program ~name:"svc.quick" ~iters:24

(* A program that stalls under fault injection: the golden run is
   instant, but any corrupted value trips a pathological slow path, so a
   fault campaign stops completing shard waves and only the server's
   watchdog can call it. One recorded site keeps the case space tiny. *)
let stall_program =
  let statics = Static.create_table () in
  let tag = Static.register statics ~phase:"svc.stall" ~label:"v" in
  let body ctx =
    let v = Ctx.record ctx ~tag 1.0 in
    ignore (Unix.select [] [] [] (if v = 1.0 then 0.002 else 0.6));
    [| v |]
  in
  Program.make ~name:"svc.stall" ~description:"stalls when a fault lands"
    ~tolerance:0.05 ~statics body

(* A kernel with a bug on one path: flipping the sign bit of its first
   value makes it raise [Failure] — not a cooperative [Ctx.Crash]. *)
let raise_program =
  let statics = Static.create_table () in
  let tag = Static.register statics ~phase:"svc.raise" ~label:"v" in
  let body ctx =
    let v = Ctx.record ctx ~tag 2.0 in
    if v = -2.0 then failwith "kernel bug on a negative input";
    [| Ctx.record ctx ~tag (v +. 1.0) |]
  in
  Program.make ~name:"svc.raise" ~description:"raises Failure on one fault"
    ~tolerance:0.05 ~statics body

let resolve = function
  | "svc.slow" -> slow_program
  | "svc.raise" -> raise_program
  | "svc.quick" -> quick_program
  | "svc.stall" -> stall_program
  | name -> invalid_arg (Printf.sprintf "unknown benchmark %S" name)

let fuel = 10_000

let fresh_dir tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_service_smoke_%s_%d" tag (Unix.getpid ()))
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

let get_ok what = function
  | Ok v -> v
  | Error (e : Client.error) ->
      check what false;
      failwith (Printf.sprintf "%s: daemon error %s: %s" what e.Client.code e.Client.message)

(* ------------------------------------------------------------------ *)
(* Part 1: kill the daemon mid-campaign, restart, bit-identical bytes  *)

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

let crash_restart_test () =
  let state_dir = fresh_dir "crash" in
  let sock = Filename.concat state_dir "daemon.sock" in
  let config =
    { (Server.default_config ~state_dir) with Server.domains = 2; resolve }
  in
  let shard_size = 64 in
  let spec =
    { (Job.default_spec ~bench:"svc.slow") with Job.shard_size; fuel = Some fuel }
  in

  let pid = spawn_daemon config sock in
  let client = connect_with_retry sock in
  let id = get_ok "submit to live daemon" (Client.submit client spec) in
  check "submit to live daemon" true;

  (* Watch until the campaign is demonstrably mid-flight (two waves done,
     so at least one checkpoint is fully on disk), then SIGKILL the
     daemon under the watcher's feet. *)
  let killed = ref false in
  (match
     Client.watch client id ~on_event:(function
       | Client.Progress { shards_done; cases_done; cases_total; _ } ->
           if (not !killed) && shards_done >= 2 && cases_done < cases_total then begin
             killed := true;
             Unix.kill pid Sys.sigkill
           end
       | Client.Round _ | Client.Worker_quarantined _ -> ())
   with
  | Ok _ | Error _ -> ()
  | exception (Ftb_service.Wire.Closed | Ftb_service.Wire.Protocol_error _) -> ()
  | exception Unix.Unix_error _ -> ());
  check "daemon killed mid-campaign" !killed;
  if not !killed then (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid);
  Client.close client;

  (* The interrupted job left a valid partial checkpoint behind. *)
  let golden = Golden.run slow_program in
  let ckpt = Job.checkpoint_path ~state_dir id in
  (match Checkpoint.load ~path:ckpt ~shard_size golden with
  | state ->
      check "crash left a valid checkpoint with completed shards"
        (Checkpoint.completed_count state > 0)
  | exception _ -> check "crash left a valid checkpoint with completed shards" false);

  (* Restart on the same state directory: the job re-queues and resumes. *)
  let pid2 = spawn_daemon config sock in
  let client2 = connect_with_retry sock in
  let events = ref 0 in
  let final =
    get_ok "watch across restart"
      (Client.watch client2 id ~on_event:(fun _ -> incr events))
  in
  check "job completed after restart" (final.Job.status = Job.Completed);
  check "restart watch streamed progress events" (!events >= 1);
  check "final counts cover the case space"
    (final.Job.counts.Job.cases_done = Golden.cases golden
    && final.Job.counts.Job.cases_total = Golden.cases golden
    && final.Job.counts.Job.masked + final.Job.counts.Job.sdc
       + final.Job.counts.Job.crash
       = Golden.cases golden);

  (* Bit-identical to the plain uninterrupted serial campaign. *)
  let reference = Ground_truth.run ~fuel golden in
  let persisted = Checkpoint.load ~path:ckpt ~shard_size golden in
  check "persisted checkpoint is complete" (Checkpoint.is_complete persisted);
  check "outcome bytes bit-identical to direct serial campaign"
    (Bytes.equal reference.Ground_truth.outcomes persisted.Checkpoint.outcomes);

  (* Graceful shutdown: the daemon drains and removes its socket. *)
  get_ok "shutdown accepted" (Client.shutdown client2);
  check "shutdown accepted" true;
  (match Unix.waitpid [] pid2 with
  | _, Unix.WEXITED 0 -> check "daemon exited cleanly after shutdown" true
  | _, _ -> check "daemon exited cleanly after shutdown" false);
  check "socket file removed on exit" (not (Sys.file_exists sock));
  Client.close client2

(* ------------------------------------------------------------------ *)
(* Part 2: protocol round-trip over a socketpair, daemon in-process     *)

let wait_for_status client id want =
  let rec go attempts =
    let job = get_ok "status poll" (Client.status client id) in
    if job.Job.status = want || Job.is_terminal job.Job.status then job
    else if attempts = 0 then job
    else begin
      ignore (Unix.select [] [] [] 0.02);
      go (attempts - 1)
    end
  in
  go 500

let socketpair_test () =
  let state_dir = fresh_dir "pair" in
  let config =
    {
      (Server.default_config ~state_dir) with
      Server.domains = 2;
      capacity = 2;
      resolve;
    }
  in
  let t = Server.create config in
  Server.start t;
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Thread.create (fun () -> Server.serve_connection t server_fd) () in
  let client = Client.of_fd client_fd in

  (* submit -> watch -> complete, bytes bit-identical *)
  let quick_spec =
    { (Job.default_spec ~bench:"svc.quick") with Job.shard_size = 32; fuel = Some fuel }
  in
  let id = get_ok "submit over socketpair" (Client.submit client quick_spec) in
  let events = ref 0 in
  let final =
    get_ok "watch over socketpair" (Client.watch client id ~on_event:(fun _ -> incr events))
  in
  check "socketpair job completed" (final.Job.status = Job.Completed);
  check "watch delivered at least one progress event" (!events >= 1);
  let golden = Golden.run quick_program in
  let reference = Ground_truth.run ~fuel golden in
  (match Checkpoint.load ~path:(Job.checkpoint_path ~state_dir id) ~shard_size:32 golden with
  | state ->
      check "socketpair outcome bytes bit-identical"
        (Checkpoint.is_complete state
        && Bytes.equal reference.Ground_truth.outcomes state.Checkpoint.outcomes)
  | exception _ -> check "socketpair outcome bytes bit-identical" false);

  (* error codes *)
  (match Client.status client 999 with
  | Error e -> check "unknown job is not_found" (e.Client.code = "not_found")
  | Ok _ -> check "unknown job is not_found" false);
  (match Client.submit client (Job.default_spec ~bench:"no-such-bench") with
  | Error e -> check "unknown bench rejected" (e.Client.code = "unknown_bench")
  | Ok _ -> check "unknown bench rejected" false);

  (* backpressure: one running + capacity(2) queued, then a typed reject *)
  let slow_spec =
    { (Job.default_spec ~bench:"svc.slow") with Job.shard_size = 64; fuel = Some fuel }
  in
  let slow_id = get_ok "submit slow job" (Client.submit client slow_spec) in
  let running = wait_for_status client slow_id Job.Running in
  check "slow job is running" (running.Job.status = Job.Running);
  let q1 = get_ok "queue 1st" (Client.submit client quick_spec) in
  let q2 = get_ok "queue 2nd" (Client.submit client quick_spec) in
  (match Client.submit client quick_spec with
  | Error e -> check "queue full is a typed reject" (e.Client.code = "queue_full")
  | Ok _ -> check "queue full is a typed reject" false);

  (* cancel a queued job *)
  (match Client.cancel client q2 with
  | Ok job -> check "queued job cancelled" (job.Job.status = Job.Cancelled)
  | Error _ -> check "queued job cancelled" false);

  (* cancel the running job: cooperative, lands at the next wave boundary *)
  (match Client.cancel client slow_id with
  | Ok _ -> ()
  | Error _ -> check "cancel running job accepted" false);
  let final_slow = get_ok "watch cancelled job" (Client.watch client slow_id) in
  check "running job cancelled at a wave boundary"
    (final_slow.Job.status = Job.Cancelled);

  (* the surviving queued job still runs to completion *)
  let final_q1 = get_ok "watch surviving job" (Client.watch client q1) in
  check "surviving queued job completed" (final_q1.Job.status = Job.Completed);

  (* list sees every job with a terminal status *)
  let jobs = get_ok "list" (Client.list client) in
  check "list reports all jobs"
    (List.length jobs = 4
    && List.for_all (fun (j : Job.info) -> Job.is_terminal j.Job.status) jobs);

  (* graceful shutdown drains the scheduler *)
  get_ok "shutdown over socketpair" (Client.shutdown client);
  Server.join t;
  check "scheduler drained on shutdown" true;
  Client.close client;
  Thread.join conn

(* ------------------------------------------------------------------ *)
(* Part 3: self-resilience — protocol-error fd hygiene, the stuck-job
   watchdog, idempotent resubmission, and seq-based watch resume        *)

let resilience_test () =
  let state_dir = fresh_dir "resil" in
  let config =
    {
      (Server.default_config ~state_dir) with
      Server.domains = 2;
      capacity = 4;
      resolve;
      stuck_after = Some 0.4;
    }
  in
  let t = Server.create config in
  Server.start t;
  let open_conn () =
    let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let thread = Thread.create (fun () -> Server.serve_connection t server_fd) () in
    (client_fd, thread)
  in

  (* A client speaking garbage gets a typed protocol error, then the
     server closes the descriptor — and keeps serving everyone else. *)
  let raw_fd, raw_thread = open_conn () in
  let buf = Bytes.create 4 in
  Bytes.set_int32_be buf 0 (Int32.of_int (Wire.max_frame + 1));
  ignore (Unix.write raw_fd buf 0 4);
  (match Wire.read raw_fd with
  | Json.Obj kvs ->
      let code =
        match List.assoc_opt "error" kvs with
        | Some (Json.Obj e) -> (
            match List.assoc_opt "code" e with Some (Json.String c) -> c | _ -> "")
        | _ -> ""
      in
      check "garbage frame answered with typed protocol error"
        (List.assoc_opt "ok" kvs = Some (Json.Bool false) && code = "protocol")
  | _ | (exception _) -> check "garbage frame answered with typed protocol error" false);
  (match Wire.read raw_fd with
  | _ -> check "server closed the descriptor after protocol error" false
  | exception Wire.Closed ->
      check "server closed the descriptor after protocol error" true
  | exception _ -> check "server closed the descriptor after protocol error" false);
  Thread.join raw_thread;
  (try Unix.close raw_fd with Unix.Unix_error _ -> ());

  (* Submit the stalling campaign; small shards so the abandoned runner
     notices the cooperative cancel quickly. *)
  let c1, th1 = open_conn () in
  let client = Client.of_fd c1 in
  let stall_spec =
    { (Job.default_spec ~bench:"svc.stall") with Job.shard_size = 2; fuel = Some fuel }
  in
  let sid = get_ok "submit stall job" (Client.submit client stall_spec) in

  (* A watcher that vanishes mid-stream: its subscription must be reaped
     and must not wedge the daemon or the other watchers. *)
  let c2, th2 = open_conn () in
  Wire.write c2 (Json.Obj [ ("cmd", Json.String "watch"); ("id", Json.Int sid) ]);
  (match Wire.read c2 with
  | Json.Obj kvs ->
      check "doomed watcher got its ok frame"
        (List.assoc_opt "ok" kvs = Some (Json.Bool true))
  | _ | (exception _) -> check "doomed watcher got its ok frame" false);
  Unix.close c2;

  (* The watchdog, not the campaign, ends this job. *)
  let final = get_ok "watch stall job to verdict" (Client.watch client sid) in
  check "watchdog marked the non-progressing job stuck"
    (final.Job.status = Job.Stuck);
  check "stuck is terminal and timestamped"
    (Job.is_terminal final.Job.status && final.Job.finished <> None);
  Thread.join th2;

  (* Let the abandoned runner notice the cooperative cancel and release
     the domain pool, so the next job is not starved into its own
     watchdog verdict. *)
  ignore (Unix.select [] [] [] 1.5);

  (* The queue moves on past a stuck job, and an idempotency key makes a
     blind resubmit safe: same id back, no duplicate campaign. *)
  let quick_spec =
    { (Job.default_spec ~bench:"svc.quick") with Job.shard_size = 32; fuel = Some fuel }
  in
  let qid = get_ok "submit with idempotency key" (Client.submit ~idem:"resub-1" client quick_spec) in
  let qid' = get_ok "blind resubmit, same key" (Client.submit ~idem:"resub-1" client quick_spec) in
  check "duplicate submit deduped to the original id" (qid' = qid);
  let finalq = get_ok "watch job queued behind stuck one" (Client.watch client qid) in
  check "queue moved on past the stuck job" (finalq.Job.status = Job.Completed);
  let qid'' = get_ok "resubmit after completion" (Client.submit ~idem:"resub-1" client quick_spec) in
  check "idempotency key outlives job completion" (qid'' = qid);

  (* Watch resume: a rewatch carrying the last seen seq gets nothing it
     has already processed; a fresh watch still gets its snapshot. *)
  let last_seq = ref 0 in
  let fresh_events = ref 0 in
  ignore
    (get_ok "re-watch completed job"
       (Client.watch client qid ~on_event:(function
          | Client.Progress { seq; _ } ->
              incr fresh_events;
              if seq > !last_seq then last_seq := seq
          | Client.Round _ | Client.Worker_quarantined _ -> ())));
  check "fresh watch of a terminal job delivers a sequenced snapshot"
    (!fresh_events >= 1 && !last_seq > 0);
  let resumed_events = ref 0 in
  ignore
    (get_ok "re-watch with after=last-seen"
       (Client.watch client qid ~after:!last_seq
          ~on_event:(fun _ -> incr resumed_events)));
  check "resumed watch suppresses already-seen events" (!resumed_events = 0);

  get_ok "shutdown resilience daemon" (Client.shutdown client);
  Server.join t;
  check "resilience daemon drained cleanly" true;
  Client.close client;
  Thread.join th1

(* ------------------------------------------------------------------ *)
(* Part 4: restart triage — a backlog deeper than the queue bound is
   capped, the overflow failed with a typed reason, keys survive        *)

let restart_overflow_test () =
  let state_dir = fresh_dir "overflow" in
  let mk id priority idem =
    {
      Job.id;
      spec =
        {
          (Job.default_spec ~bench:"svc.quick") with
          Job.shard_size = 32;
          fuel = Some fuel;
          priority;
        };
      status = Job.Queued;
      counts = Job.zero_counts;
      submitted = float_of_int id;
      started = None;
      finished = None;
      idem;
      cache = Job.Cache_none;
    }
  in
  (* Dispatch order is 2 (prio 5), 4 (prio 1), then 1, 3 (prio 0, FIFO):
     with capacity 2, jobs 2 and 4 survive and 1 and 3 are evicted. *)
  List.iter (Job.save ~state_dir)
    [ mk 1 0 None; mk 2 5 (Some "survivor"); mk 3 0 None; mk 4 1 None ];
  let config =
    { (Server.default_config ~state_dir) with Server.domains = 1; capacity = 2; resolve }
  in
  let t = Server.create config in
  (* Scheduler deliberately not started: this inspects restart triage
     before anything dequeues. *)
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Thread.create (fun () -> Server.serve_connection t server_fd) () in
  let client = Client.of_fd client_fd in
  let jobs = get_ok "list restored jobs" (Client.list client) in
  let status id =
    (List.find (fun (j : Job.info) -> j.Job.id = id) jobs).Job.status
  in
  let evicted = function
    | Job.Failed reason ->
        String.length reason >= 7 && String.sub reason 0 7 = "evicted"
    | _ -> false
  in
  check "restart restored exactly the jobs on disk" (List.length jobs = 4);
  check "best dispatch order re-queued up to capacity"
    (status 2 = Job.Queued && status 4 = Job.Queued);
  check "overflow marked failed with a typed eviction reason"
    (evicted (status 1) && evicted (status 3));
  check "eviction persisted for post-restart autopsy"
    (List.length
       (List.filter (fun (j : Job.info) -> evicted j.Job.status) (Job.load_all ~state_dir))
    = 2);
  (* The surviving job's idempotency key still dedupes across restart. *)
  let rid =
    get_ok "resubmit survivor's key across restart"
      (Client.submit ~idem:"survivor" client (Job.default_spec ~bench:"svc.quick"))
  in
  check "idempotency key survives daemon restart" (rid = 2);
  Client.close client;
  Thread.join conn

(* ------------------------------------------------------------------ *)
(* Part 3: sample jobs                                                 *)

let sample_test () =
  let state_dir = fresh_dir "sample" in
  let t = Server.create { (Server.default_config ~state_dir) with Server.domains = 1; resolve } in
  Server.start t;
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Thread.create (fun () -> Server.serve_connection t server_fd) () in
  let client = Client.of_fd client_fd in
  let run_sample bench ~fraction ~seed =
    let spec =
      {
        (Job.default_spec ~bench) with
        Job.mode = Job.Sample { fraction; seed };
        shard_size = 64;
        fuel = Some fuel;
      }
    in
    let id = get_ok (bench ^ ": sample submit") (Client.submit client spec) in
    get_ok (bench ^ ": sample watch") (Client.watch client id)
  in
  let counts (job : Job.info) = Job.(job.counts.masked, job.counts.sdc, job.counts.crash) in
  (* Same draw, same counts as the propagation sampler. *)
  let job = run_sample "svc.quick" ~fraction:0.25 ~seed:99 in
  let golden = Golden.run quick_program in
  let expected =
    Sample_run.count_outcomes
      (Sample_run.run_cases ~fuel golden
         (Sample_run.draw_uniform (Ftb_util.Rng.create ~seed:99) golden ~fraction:0.25))
  in
  check "bit-flip-64 sample job completed" (job.Job.status = Job.Completed);
  check "bit-flip-64 sample counts = propagation sampler counts" (counts job = expected);
  (* A kernel exception is a crash, not a failed job. *)
  let job = run_sample "svc.raise" ~fraction:1.0 ~seed:1 in
  let oracle = Ground_truth.run ~fuel (Golden.run raise_program) in
  let m = ref 0 and s = ref 0 and c = ref 0 in
  Ground_truth.counts oracle ~masked:m ~sdc:s ~crash:c;
  check "sample job over a raising kernel completed" (job.Job.status = Job.Completed);
  check "the raising case is one exception crash"
    ((Ground_truth.crash_counts oracle).Ground_truth.exn = 1);
  check "raising-kernel sample counts = contained per-case counts"
    (counts job = (!m, !s, !c));
  ignore (get_ok "sample: shutdown" (Client.shutdown client));
  Server.join t;
  Client.close client;
  Thread.join conn

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf "service smoke: slow=%d sites, quick=%d sites\n%!"
    (Golden.sites (Golden.run slow_program))
    (Golden.sites (Golden.run quick_program));
  crash_restart_test ();
  socketpair_test ();
  resilience_test ();
  restart_overflow_test ();
  sample_test ();
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "service smoke passed"
