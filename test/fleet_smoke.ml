(* Fleet smoke test (dune alias @fleet-smoke).

   End-to-end drill of the distributed worker fleet:

   1. Worker-death drill with real processes: fork a daemon with the
      fleet scheduler wired in, fork two worker processes that attach
      over the Unix socket, then SIGKILL one worker mid-campaign — the
      abandoned lease must expire and its shard re-run on the surviving
      worker, converging to outcome bytes bit-identical to the plain
      serial campaign. A second job then loses its *last* worker
      mid-flight, so the daemon's local holder, which claims shards in
      every wave anyway, finishes the job alone. The forks happen before
      the parent touches any domain pool, because a pool's worker domains
      do not survive fork().

   2. In-process socketpair fleet: two Worker.run threads attached to an
      in-process daemon over socketpairs; a campaign must be executed
      partly by leased shards (fleet stats show remote commits), complete
      bit-identically, and the workers must detach cleanly on stop. Each
      job is submitted only once both workers' lease requests are parked
      in the daemon: a wave hands parked requests their shards before the
      local holder claims any, so the remote commits are certain. *)

module Ctx = Ftb_trace.Ctx
module Static = Ftb_trace.Static
module Program = Ftb_trace.Program
module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Checkpoint = Ftb_campaign.Checkpoint
module Job = Ftb_service.Job
module Client = Ftb_service.Client
module Server = Ftb_service.Server
module Fleet = Ftb_dist.Fleet
module Worker = Ftb_dist.Worker

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

(* Damped fixed-point iteration on a 4-vector (same family as the other
   smokes): "drill" is big enough that a SIGKILL lands mid-campaign,
   "quick" keeps the in-process part fast. *)
let make_program ~name ~iters =
  let statics = Static.create_table () in
  let tag_load = Static.register statics ~phase:"fleet.load" ~label:"x[i]" in
  let tag_iter = Static.register statics ~phase:"fleet.iter" ~label:"x[i] update" in
  let tag_out = Static.register statics ~phase:"fleet.out" ~label:"sum" in
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

let drill_program = make_program ~name:"fleet.drill" ~iters:40
let quick_program = make_program ~name:"fleet.quick" ~iters:12

let resolve = function
  | "fleet.drill" -> drill_program
  | "fleet.quick" -> quick_program
  | name -> invalid_arg (Printf.sprintf "unknown benchmark %S" name)

let fuel = 10_000
let lease_ttl = 0.5

let fresh_dir tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_fleet_smoke_%s_%d" tag (Unix.getpid ()))
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

let server_config ~state_dir fleet =
  {
    (Server.default_config ~state_dir) with
    Server.domains = 1;
    resolve;
    extension = Some (Fleet.extension fleet);
    wave_runner = Some (Fleet.wave_runner fleet);
  }

(* ------------------------------------------------------------------ *)
(* Part 1: fork a daemon + two workers, SIGKILL workers mid-campaign.   *)

let spawn_daemon ~state_dir sock =
  match Unix.fork () with
  | 0 ->
      let fleet = Fleet.create ~lease_ttl () in
      let t = Server.create (server_config ~state_dir fleet) in
      (match Server.run ~socket:sock t with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let connect_fd_with_retry sock =
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

(* A worker process: attaches to the daemon's socket and serves leases
   until the daemon hangs up (or it is SIGKILLed by the drill). The first
   log line only ever follows a successful registration, so writing one
   byte to [ready_w] on it tells the parent the worker is attached. *)
let spawn_worker sock ready_w =
  match Unix.fork () with
  | 0 ->
      let signalled = ref false in
      let log _msg =
        if not !signalled then begin
          signalled := true;
          ignore (Unix.write ready_w (Bytes.make 1 'r') 0 1)
        end
      in
      let cfg =
        Worker.config ~domains:1 ~resolve ~log (fun () -> connect_fd_with_retry sock)
      in
      (match Worker.run cfg with
      | (_ : Worker.stats) -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let wait_worker_ready what ready_r =
  match Unix.select [ ready_r ] [] [] 30.0 with
  | [ _ ], _, _ ->
      ignore (Unix.read ready_r (Bytes.create 1) 0 1);
      check what true
  | _ -> check what false

let connect_client_with_retry sock =
  let rec go attempts =
    match Client.connect ~socket:sock with
    | client -> client
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when attempts > 0 ->
        ignore (Unix.select [] [] [] 0.05);
        go (attempts - 1)
  in
  go 200

(* Submit one drill campaign and SIGKILL [victim] once it is
   demonstrably mid-flight; returns the final job descriptor. *)
let run_job_killing client ~what ~victim =
  let spec =
    { (Job.default_spec ~bench:"fleet.drill") with Job.shard_size = 128; fuel = Some fuel }
  in
  let id = get_ok (what ^ ": submit") (Client.submit client spec) in
  let killed = ref false in
  let final =
    get_ok (what ^ ": watch")
      (Client.watch client id ~on_event:(function
         | Client.Progress { shards_done; cases_done; cases_total; _ } ->
             if (not !killed) && shards_done >= 2 && cases_done < cases_total then begin
               killed := true;
               Unix.kill victim Sys.sigkill
             end
         | Client.Round _ | Client.Worker_quarantined _ -> ()))
  in
  check (what ^ ": worker killed mid-campaign") !killed;
  if not !killed then (try Unix.kill victim Sys.sigkill with Unix.Unix_error _ -> ());
  (id, final)

let check_bit_identical what ~state_dir ~shard_size id =
  let golden = Golden.run drill_program in
  let reference = Ground_truth.run ~fuel golden in
  match Checkpoint.load ~path:(Job.checkpoint_path ~state_dir id) ~shard_size golden with
  | state ->
      check what
        (Checkpoint.is_complete state
        && Bytes.equal reference.Ground_truth.outcomes state.Checkpoint.outcomes)
  | exception _ -> check what false

let worker_death_test () =
  let state_dir = fresh_dir "drill" in
  let sock = Filename.concat state_dir "daemon.sock" in
  let ready_r, ready_w = Unix.pipe () in

  let daemon = spawn_daemon ~state_dir sock in
  let w1 = spawn_worker sock ready_w in
  let w2 = spawn_worker sock ready_w in
  wait_worker_ready "first worker attached" ready_r;
  wait_worker_ready "second worker attached" ready_r;

  let client = connect_client_with_retry sock in

  (* Job 1: kill one of two workers mid-lease. The abandoned shard's lease
     expires and the survivor picks it up; the job must still complete
     with bytes bit-identical to the serial campaign. *)
  let id1, final1 = run_job_killing client ~what:"one-dead" ~victim:w1 in
  check "one-dead: job completed despite worker death"
    (final1.Job.status = Job.Completed);
  check_bit_identical "one-dead: outcome bytes bit-identical to serial run"
    ~state_dir ~shard_size:128 id1;

  (* Job 2: kill the *last* worker mid-lease. The local holder claims
     every shard the dead worker does not hold and, once its lease
     expires, the one it did, so the job still terminates — and still
     bit-identically. *)
  let id2, final2 = run_job_killing client ~what:"all-dead" ~victim:w2 in
  check "all-dead: job completed on the local executor alone"
    (final2.Job.status = Job.Completed);
  check_bit_identical "all-dead: outcome bytes bit-identical to serial run"
    ~state_dir ~shard_size:128 id2;

  get_ok "drill daemon shutdown" (Client.shutdown client);
  (match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> check "drill daemon exited cleanly" true
  | _, _ -> check "drill daemon exited cleanly" false);
  (match Unix.waitpid [] w1 with
  | _, Unix.WSIGNALED s when s = Sys.sigkill ->
      check "first worker died by SIGKILL" true
  | _, _ -> check "first worker died by SIGKILL" false);
  (match Unix.waitpid [] w2 with
  | _, Unix.WSIGNALED s when s = Sys.sigkill ->
      check "second worker died by SIGKILL" true
  | _, _ -> check "second worker died by SIGKILL" false);
  Client.close client;
  Unix.close ready_r;
  Unix.close ready_w

(* ------------------------------------------------------------------ *)
(* Part 2: in-process fleet over socketpairs.                           *)

(* Wait until [n] lease requests are parked in the daemon. *)
let await_parked fleet n =
  let rec go attempts =
    if (Fleet.stats fleet).Fleet.parked >= n then true
    else if attempts = 0 then false
    else begin
      ignore (Unix.select [] [] [] 0.002);
      go (attempts - 1)
    end
  in
  go 5000

let socketpair_fleet_test () =
  let state_dir = fresh_dir "pair" in
  let fleet = Fleet.create ~lease_ttl () in
  let t = Server.create (server_config ~state_dir fleet) in
  Server.start t;
  let connect () =
    let server_fd, peer_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    ignore (Thread.create (fun () -> Server.serve_connection t server_fd) ());
    peer_fd
  in

  (* Two in-process workers; [stop] detaches them once the job is done. *)
  let stop = Atomic.make false in
  let worker_thread () =
    Thread.create
      (fun () -> Worker.run (Worker.config ~domains:1 ~resolve ~stop:(fun () -> Atomic.get stop) connect))
      ()
  in
  let wt1 = worker_thread () in
  let wt2 = worker_thread () in
  let rec await_workers attempts =
    if Fleet.live_workers fleet >= 2 then true
    else if attempts = 0 then false
    else begin
      ignore (Unix.select [] [] [] 0.02);
      await_workers (attempts - 1)
    end
  in
  check "both in-process workers registered" (await_workers 500);
  check "both workers' lease requests parked" (await_parked fleet 2);

  let client = Client.of_fd (connect ()) in
  let spec =
    { (Job.default_spec ~bench:"fleet.quick") with Job.shard_size = 64; fuel = Some fuel }
  in
  let id = get_ok "submit fleet job" (Client.submit client spec) in
  let events = ref 0 in
  let final =
    get_ok "watch fleet job" (Client.watch client id ~on_event:(fun _ -> incr events))
  in
  check "fleet job completed" (final.Job.status = Job.Completed);
  check "watch streamed progress events" (!events >= 1);

  let golden = Golden.run quick_program in
  let reference = Ground_truth.run ~fuel golden in
  (match Checkpoint.load ~path:(Job.checkpoint_path ~state_dir id) ~shard_size:64 golden with
  | state ->
      check "fleet outcome bytes bit-identical to serial run"
        (Checkpoint.is_complete state
        && Bytes.equal reference.Ground_truth.outcomes state.Checkpoint.outcomes)
  | exception _ -> check "fleet outcome bytes bit-identical to serial run" false);
  (* The checkpoint a fleet campaign persists carries the same golden
     fingerprint as a local one: loading against an independently rebuilt
     golden (above) would have failed otherwise, and the fingerprint in
     every grant matches it. *)
  check "grant fingerprint matches the local golden"
    (Checkpoint.fingerprint_of_golden golden
    = Checkpoint.fingerprint_of_golden (Golden.run (resolve "fleet.quick")));

  let s = Fleet.stats fleet in
  check "shards were executed remotely" (s.Fleet.remote_committed > 0);
  check "every remote commit came from a grant" (s.Fleet.granted >= s.Fleet.remote_committed);
  let total = Golden.cases golden in
  let shards = (total + 63) / 64 in
  check "every shard accounted for (remote + local)"
    (s.Fleet.remote_committed + s.Fleet.local_committed >= shards);

  (* Clean detach: stop the workers, then drain the daemon. *)
  Atomic.set stop true;
  Thread.join wt1;
  Thread.join wt2;
  check "workers detached from live set" (Fleet.live_workers fleet = 0);
  get_ok "fleet daemon shutdown" (Client.shutdown client);
  Server.join t;
  check "fleet daemon drained cleanly" true;
  Client.close client

(* ------------------------------------------------------------------ *)
(* Part 3: in-process fleet under non-default fault models.             *)

let model_specs : Models.spec list =
  [
    { model = Models.Bit_flip_32; seed = 0 };
    { model = Models.Random_value { lo = -50.; hi = 50. }; seed = 7 };
  ]

let model_fleet_test () =
  let state_dir = fresh_dir "model" in
  let fleet = Fleet.create ~lease_ttl () in
  let t = Server.create (server_config ~state_dir fleet) in
  Server.start t;
  let connect () =
    let server_fd, peer_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    ignore (Thread.create (fun () -> Server.serve_connection t server_fd) ());
    peer_fd
  in
  let stop = Atomic.make false in
  let worker_thread () =
    Thread.create
      (fun () -> Worker.run (Worker.config ~domains:1 ~resolve ~stop:(fun () -> Atomic.get stop) connect))
      ()
  in
  let wt1 = worker_thread () in
  let wt2 = worker_thread () in
  let rec await_workers attempts =
    if Fleet.live_workers fleet >= 2 then true
    else if attempts = 0 then false
    else begin
      ignore (Unix.select [] [] [] 0.02);
      await_workers (attempts - 1)
    end
  in
  check "model fleet: both workers registered" (await_workers 500);

  let client = Client.of_fd (connect ()) in
  let golden = Golden.run quick_program in
  let committed_before = ref (Fleet.stats fleet).Fleet.remote_committed in
  List.iter
    (fun (spec : Models.spec) ->
      let what = Models.spec_name spec in
      let job_spec =
        { (Job.default_spec ~bench:"fleet.quick") with
          Job.shard_size = 64;
          fuel = Some fuel;
          model = spec;
        }
      in
      check (what ^ ": both workers' lease requests parked") (await_parked fleet 2);
      let id = get_ok (what ^ ": submit") (Client.submit client job_spec) in
      let final = get_ok (what ^ ": watch") (Client.watch client id) in
      check (what ^ ": fleet job completed") (final.Job.status = Job.Completed);
      (* Leased shards must reproduce the direct serial campaign under the
         same model bit-for-bit — for the stochastic model this checks the
         per-(site,case) seed derivation is scheduling-independent. *)
      let reference = Executor.ground_truth_model ~domains:1 ~fuel spec golden in
      (match
         Checkpoint.load ~model:spec
           ~path:(Job.checkpoint_path ~state_dir id)
           ~shard_size:64 golden
       with
      | state ->
          check (what ^ ": fleet bytes bit-identical to serial model campaign")
            (Checkpoint.is_complete state
            && Bytes.equal reference.Ground_truth.outcomes state.Checkpoint.outcomes)
      | exception _ ->
          check (what ^ ": fleet bytes bit-identical to serial model campaign") false);
      let committed = (Fleet.stats fleet).Fleet.remote_committed in
      check (what ^ ": shards were executed remotely") (committed > !committed_before);
      committed_before := committed)
    model_specs;

  Atomic.set stop true;
  Thread.join wt1;
  Thread.join wt2;
  get_ok "model fleet daemon shutdown" (Client.shutdown client);
  Server.join t;
  Client.close client

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf "fleet smoke: drill=%d sites, quick=%d sites (lease ttl %.2fs)\n%!"
    (Golden.sites (Golden.run drill_program))
    (Golden.sites (Golden.run quick_program))
    lease_ttl;
  worker_death_test ();
  socketpair_fleet_test ();
  model_fleet_test ();
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "fleet smoke passed"
