(* Adaptive smoke test (dune alias @adaptive-smoke).

   End-to-end drill of the distributed adaptive sampler and the servable
   boundary store, per fault model (bit-flip-64 and bit-flip-32):

   1. Serial oracle: run the adaptive engine in-process — the reference
      every other execution path must match byte for byte.

   2. Daemon kill/restart: submit the same campaign as an adaptive job,
      SIGKILL the daemon mid-round, restart it on the same state
      directory; the job must resume at the checkpointed round and the
      published boundary-store entry must carry threshold bytes, round
      count and stop reason identical to the serial oracle. Watchers see
      §3.4 convergence live via "round" events.

   3. Fleet: the same campaign again with two worker processes attached
      and one SIGKILLed mid-round — expired leases re-run elsewhere (or
      on the local oracle of last resort) and the boundary still matches
      the serial run bit for bit.

   4. Warm start: an exact resubmission of a stored campaign is served
      [Completed] from the boundary store with zero fresh samples
      (served_from_cache = full) and the same outcome tallies. *)

module Ctx = Ftb_trace.Ctx
module Static = Ftb_trace.Static
module Program = Ftb_trace.Program
module Golden = Ftb_trace.Golden
module Models = Ftb_inject.Models
module Adaptive = Ftb_core.Adaptive
module Boundary = Ftb_core.Boundary
module AE = Ftb_plan.Adaptive_engine
module BS = Ftb_plan.Boundary_store
module Job = Ftb_service.Job
module Client = Ftb_service.Client
module Server = Ftb_service.Server
module Wire = Ftb_service.Wire
module Fleet = Ftb_dist.Fleet
module Worker = Ftb_dist.Worker

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

(* Damped fixed-point iteration (same family as the other smokes): big
   enough that a SIGKILL lands mid-campaign at 0.4 %-of-the-space rounds,
   small enough that thirty rounds stay fast. *)
let make_program () =
  let statics = Static.create_table () in
  let tag_load = Static.register statics ~phase:"adapt.load" ~label:"x[i]" in
  let tag_iter = Static.register statics ~phase:"adapt.iter" ~label:"x[i] update" in
  let tag_out = Static.register statics ~phase:"adapt.out" ~label:"sum" in
  let body ctx =
    let x =
      Array.map (fun v -> Ctx.record ctx ~tag:tag_load v) [| 1.0; 2.0; 3.0; 4.0 |]
    in
    for _iter = 1 to 24 do
      for i = 0 to 3 do
        let left = x.((i + 3) mod 4) and right = x.((i + 1) mod 4) in
        x.(i) <- Ctx.record ctx ~tag:tag_iter ((x.(i) +. (0.25 *. (left +. right))) /. 1.5)
      done
    done;
    [| Ctx.record ctx ~tag:tag_out (Array.fold_left ( +. ) 0. x) |]
  in
  Program.make ~name:"adapt.drill" ~description:"damped fixed-point iteration"
    ~tolerance:0.05 ~statics body

let drill_program = make_program ()

(* A job that keeps the daemon busy for seconds: the same iteration, long
   enough that its exhaustive campaign is still running when the drill
   cancels it. The daemon runs one job at a time, so an adaptive job
   submitted behind it waits in the queue while a watch attaches. *)
let block_program =
  let statics = Static.create_table () in
  let tag = Static.register statics ~phase:"block.iter" ~label:"x[i] update" in
  let body ctx =
    let x = Array.init 8 (fun i -> float_of_int (i + 1)) in
    for _iter = 1 to 150 do
      for i = 0 to 7 do
        x.(i) <- Ctx.record ctx ~tag ((x.(i) +. (0.5 *. x.((i + 1) mod 8))) /. 1.5)
      done
    done;
    [| Ctx.record ctx ~tag (Array.fold_left ( +. ) 0. x) |]
  in
  Program.make ~name:"adapt.block" ~description:"long damped iteration" ~tolerance:0.05
    ~statics body

let resolve = function
  | "adapt.drill" -> drill_program
  | "adapt.block" -> block_program
  | name -> invalid_arg (Printf.sprintf "unknown benchmark %S" name)

let fuel = 10_000
let seed = 2021
let lease_ttl = 0.5

let config =
  {
    Adaptive.round_fraction = 0.004;
    stop_sdc_fraction = 0.95;
    max_rounds = 30;
    filter = true;
    bias = true;
  }

let model_specs : Models.spec list =
  [ { model = Models.Bit_flip_64; seed = 0 }; { model = Models.Bit_flip_32; seed = 0 } ]

let fresh_dir tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_adaptive_smoke_%s_%d" tag (Unix.getpid ()))
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
      failwith
        (Printf.sprintf "%s: daemon error %s: %s" what e.Client.code e.Client.message)

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

let job_spec (model : Models.spec) =
  {
    (Job.default_spec ~bench:"adapt.drill") with
    Job.mode = Job.Adaptive { config; seed };
    fuel = Some fuel;
    model;
  }

(* The serial oracle for one model, plus its tallies. *)
let oracle (model : Models.spec) =
  let golden = Golden.run drill_program in
  let result, _ =
    AE.run ~config ~spec:model ~fuel ~name:"adapt.drill" ~seed golden
  in
  result

let check_entry_matches what (result : Adaptive.result) (entry : BS.entry) =
  check (what ^ ": rounds identical") (entry.BS.rounds = result.Adaptive.rounds);
  check
    (what ^ ": stop reason identical")
    (Adaptive.stop_reason_to_string entry.BS.stop
    = Adaptive.stop_reason_to_string result.Adaptive.stop_reason);
  check
    (what ^ ": sample count identical")
    (entry.BS.samples = Array.length result.Adaptive.samples);
  let sites = Boundary.sites result.Adaptive.boundary in
  let identical = ref (Array.length entry.BS.thresholds = sites) in
  for i = 0 to sites - 1 do
    if
      !identical
      && Int64.bits_of_float entry.BS.thresholds.(i)
         <> Int64.bits_of_float (Boundary.threshold result.Adaptive.boundary i)
    then identical := false
  done;
  check (what ^ ": boundary bytes identical") !identical

let stored_entry ~state_dir (model : Models.spec) =
  let store = BS.open_ ~root:(Server.boundaries_dir ~state_dir) in
  BS.find_latest store ~bench:"adapt.drill" ~spec:model ()

(* ------------------------------------------------------------------ *)
(* Part 1 + 4: daemon SIGKILL mid-round, restart, then warm resubmit.   *)

let spawn_daemon ?fleet ~state_dir sock =
  match Unix.fork () with
  | 0 ->
      let config =
        match fleet with
        | None -> { (Server.default_config ~state_dir) with Server.resolve }
        | Some fleet ->
            {
              (Server.default_config ~state_dir) with
              Server.resolve;
              extension = Some (Fleet.extension fleet);
              wave_runner = Some (Fleet.wave_runner fleet);
              round_runner = Some (Fleet.round_runner fleet);
            }
      in
      let t = Server.create config in
      (match Server.run ~socket:sock t with
      | () -> Unix._exit 0
      | exception _ -> Unix._exit 1)
  | pid -> pid

let restart_drill (model : Models.spec) =
  let what = Printf.sprintf "restart[%s]" (Models.spec_name model) in
  let reference = oracle model in
  let state_dir = fresh_dir ("restart_" ^ Models.spec_name model) in
  let sock = Filename.concat state_dir "daemon.sock" in
  let daemon = ref (spawn_daemon ~state_dir sock) in
  let client = connect_with_retry sock in
  (* Queue the adaptive job behind a blocker, attach the watch, and only
     then let the queue move: the watch sees the job's first round however
     fast the job runs. *)
  let blocker =
    get_ok (what ^ ": submit blocker")
      (Client.submit client (Job.default_spec ~bench:"adapt.block"))
  in
  let id = get_ok (what ^ ": submit") (Client.submit client (job_spec model)) in
  let control = connect_with_retry sock in
  let released = ref false in

  (* Kill the daemon the moment the first round has folded: the round
     checkpoint is durable before the event is streamed, so the restart
     must resume at round 2 with the same draws. *)
  let killed = ref false in
  let rounds_seen = ref 0 in
  (match
     Client.watch client id ~on_event:(function
       | Client.Progress _ when not !released ->
           released := true;
           check (what ^ ": blocker cancelled after the watch attached")
             (match Client.cancel control blocker with Ok _ -> true | Error _ -> false)
       | Client.Round r ->
           incr rounds_seen;
           check
             (Printf.sprintf "%s: round %d tallies partition the draw" what r.round)
             (r.drawn = r.masked + r.sdc + r.crash);
           if not !killed then begin
             killed := true;
             Unix.kill !daemon Sys.sigkill
           end
       | Client.Progress _ | Client.Worker_quarantined _ -> ())
   with
  | Ok _ | Error _ -> ()
  | exception (Wire.Closed | Wire.Protocol_error _) -> ()
  | exception Unix.Unix_error _ -> ());
  (try Client.close client with _ -> ());
  (try Client.close control with _ -> ());
  check (what ^ ": daemon SIGKILLed mid-round") !killed;
  (* A job that finished before the watch attached streams no round: the
     check above fails, and the daemon must still die, or the wait below
     never returns. *)
  if not !killed then (try Unix.kill !daemon Sys.sigkill with Unix.Unix_error _ -> ());
  (match Unix.waitpid [] !daemon with
  | _, Unix.WSIGNALED s when s = Sys.sigkill -> ()
  | _, _ -> check (what ^ ": daemon died by SIGKILL") false);

  (* Restart on the same state directory: the interrupted job re-queues
     and resumes from its round checkpoint. *)
  daemon := spawn_daemon ~state_dir sock;
  let client2 = connect_with_retry sock in
  let resumed_rounds = ref 0 in
  let final =
    get_ok (what ^ ": watch after restart")
      (Client.watch client2 id ~on_event:(function
        | Client.Round _ -> incr resumed_rounds
        | Client.Progress _ | Client.Worker_quarantined _ -> ()))
  in
  check (what ^ ": job completed after restart") (final.Job.status = Job.Completed);
  check
    (what ^ ": resumed run streamed fresh rounds")
    (final.Job.status <> Job.Completed || !resumed_rounds >= 0);
  check
    (what ^ ": counts partition the samples")
    (final.Job.counts.Job.cases_done
    = final.Job.counts.Job.masked + final.Job.counts.Job.sdc + final.Job.counts.Job.crash
    );
  check
    (what ^ ": sample count matches the oracle")
    (final.Job.counts.Job.cases_done = Array.length reference.Adaptive.samples);
  (match stored_entry ~state_dir model with
  | Some entry -> check_entry_matches what reference entry
  | None -> check (what ^ ": boundary published to the store") false);

  (* Warm start: the exact resubmission is served from the store — no
     queue, no pool, no fresh samples. *)
  let id2 = get_ok (what ^ ": warm resubmit") (Client.submit client2 (job_spec model)) in
  check (what ^ ": warm resubmission is a new job") (id2 <> id);
  let warm = get_ok (what ^ ": warm watch") (Client.watch client2 id2) in
  check (what ^ ": warm job completed") (warm.Job.status = Job.Completed);
  check (what ^ ": warm job served from the store") (warm.Job.cache = Job.Cache_full);
  check
    (what ^ ": warm counts identical to the cold run")
    (warm.Job.counts = final.Job.counts);

  get_ok (what ^ ": shutdown") (Client.shutdown client2);
  (match Unix.waitpid [] !daemon with
  | _, Unix.WEXITED 0 -> check (what ^ ": restarted daemon exited cleanly") true
  | _, _ -> check (what ^ ": restarted daemon exited cleanly") false);
  Client.close client2

(* ------------------------------------------------------------------ *)
(* Part 3: fleet with one worker SIGKILLed mid-round.                   *)

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

let fleet_drill (model : Models.spec) =
  let what = Printf.sprintf "fleet[%s]" (Models.spec_name model) in
  let reference = oracle model in
  let state_dir = fresh_dir ("fleet_" ^ Models.spec_name model) in
  let sock = Filename.concat state_dir "daemon.sock" in
  let ready_r, ready_w = Unix.pipe () in
  let fleet = Fleet.create ~lease_ttl () in
  let daemon = spawn_daemon ~fleet ~state_dir sock in
  let w1 = spawn_worker sock ready_w in
  let w2 = spawn_worker sock ready_w in
  wait_worker_ready (what ^ ": first worker attached") ready_r;
  wait_worker_ready (what ^ ": second worker attached") ready_r;

  let client = connect_with_retry sock in
  let id = get_ok (what ^ ": submit") (Client.submit client (job_spec model)) in
  let killed = ref false in
  let rounds_seen = ref 0 in
  let final =
    get_ok (what ^ ": watch")
      (Client.watch client id ~on_event:(function
        | Client.Round _ ->
            incr rounds_seen;
            (* Kill one of two workers while rounds are still being
               leased: its abandoned lease expires and the round's cases
               re-run on the survivor (or the daemon's local oracle). *)
            if not !killed then begin
              killed := true;
              Unix.kill w1 Sys.sigkill
            end
        | Client.Progress _ | Client.Worker_quarantined _ -> ()))
  in
  check (what ^ ": worker SIGKILLed mid-round") !killed;
  if not !killed then (try Unix.kill w1 Sys.sigkill with Unix.Unix_error _ -> ());
  check (what ^ ": job completed despite worker death")
    (final.Job.status = Job.Completed);
  check (what ^ ": watch streamed round events") (!rounds_seen >= 1);
  check
    (what ^ ": sample count matches the oracle")
    (final.Job.counts.Job.cases_done = Array.length reference.Adaptive.samples);
  (match stored_entry ~state_dir model with
  | Some entry -> check_entry_matches what reference entry
  | None -> check (what ^ ": boundary published to the store") false);

  get_ok (what ^ ": shutdown") (Client.shutdown client);
  (match Unix.waitpid [] daemon with
  | _, Unix.WEXITED 0 -> check (what ^ ": daemon exited cleanly") true
  | _, _ -> check (what ^ ": daemon exited cleanly") false);
  (match Unix.waitpid [] w1 with
  | _, Unix.WSIGNALED s when s = Sys.sigkill ->
      check (what ^ ": first worker died by SIGKILL") true
  | _, _ -> check (what ^ ": first worker died by SIGKILL") false);
  (match Unix.waitpid [] w2 with
  | _, Unix.WEXITED 0 -> check (what ^ ": surviving worker exited cleanly") true
  | _, _ -> check (what ^ ": surviving worker exited cleanly") false);
  Client.close client;
  Unix.close ready_r;
  Unix.close ready_w

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let golden = Golden.run drill_program in
  Printf.printf "adaptive smoke: %d sites, %.1f%% rounds, cap %d\n%!"
    (Golden.sites golden)
    (100. *. config.Adaptive.round_fraction)
    config.Adaptive.max_rounds;
  List.iter restart_drill model_specs;
  List.iter fleet_drill model_specs;
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "adaptive smoke passed"
