(* The untraced run: the real `ftb serve` (and `ftb worker`) binaries on a
   fresh state directory, driven by one closed-loop client connection. *)

module Client = Ftb_service.Client
module Job = Ftb_service.Job
module Json = Ftb_service.Json
module Adaptive = Ftb_core.Adaptive

let now = Unix.gettimeofday

type env = {
  exe : string;  (** the built `ftb` CLI *)
  seed : int;
  seconds : float;
  log : string -> unit;  (** progress lines, to stderr *)
}

type shape = { domains : int; fleet : bool }

let shape_of = function
  | "fleet_cold" -> { domains = 1; fleet = true }
  | _ -> { domains = 2; fleet = false }

(* One finished job, as the client saw it. *)
type record = {
  job : Jobs.job;
  id : int;
  info : Job.info;
  latency : float;  (** submit until the final watch frame, seconds *)
  frames : int;  (** frames received: submit ACK, watch events, done *)
}

exception Op_failed of string

let spec_of (j : Jobs.job) =
  {
    (Job.default_spec ~bench:j.Jobs.bench) with
    Job.mode =
      (match j.Jobs.kind with
      | Jobs.Exhaustive -> Job.Exhaustive
      | Jobs.Adaptive -> Job.Adaptive { config = Adaptive.default_config; seed = j.Jobs.seed });
    fuel = Some j.Jobs.fuel;
    model = j.Jobs.model;
  }

(* Submit one job and watch it to its final frame. *)
let run_job client (j : Jobs.job) =
  let t0 = now () in
  match Client.submit client (spec_of j) with
  | Error e -> raise (Op_failed (Printf.sprintf "submit %s: %s" (Jobs.describe j) e.Client.message))
  | Ok id -> (
      let frames = ref 2 in
      match Client.watch ~on_event:(fun _ -> incr frames) client id with
      | Error e -> raise (Op_failed (Printf.sprintf "watch %d: %s" id e.Client.message))
      | Ok info when info.Job.status <> Job.Completed ->
          raise
            (Op_failed
               (Printf.sprintf "job %d (%s) ended %s" id (Jobs.describe j)
                  (Job.status_name info.Job.status)))
      | Ok info -> { job = j; id; info; latency = now () -. t0; frames = !frames })

(* A running daemon (and worker) with its client connection. *)
type daemon = {
  proc : Proc.t;
  worker : Proc.t option;
  conn : Proc.conn;
  state : string;
  setup : float;  (** spawn until warm, steal-adjusted seconds *)
}

(* The warm-up job runs a kernel outside every timed catalogue, so the
   daemon's pool, kernel registry and stores are set up before timing. *)
let warmup_job = function
  | Jobs.Adaptive -> Jobs.adaptive "ir.dot" 1
  | Jobs.Exhaustive -> Jobs.exhaustive "ir.dot" Jobs.bf64

let start env shape ~kind ~tag =
  let state = "state-" ^ tag and socket = tag ^ ".sock" in
  let clock = Proc.clock () in
  let proc =
    Proc.spawn ~exe:env.exe ~log:(tag ^ ".daemon.log") "ftb serve"
      [ "serve"; "--socket"; socket; "--state"; state; "--domains"; string_of_int shape.domains ]
  in
  let conn = Proc.connect ~daemon:proc socket in
  let worker =
    if not shape.fleet then None
    else begin
      let w =
        Proc.spawn ~exe:env.exe ~log:(tag ^ ".worker.log") "ftb worker"
          [ "worker"; "--connect"; socket; "--domains"; "1"; "--name"; "perfbench-" ^ tag ]
      in
      let deadline = now () +. 30. in
      while Proc.live_workers conn < 1 do
        if now () > deadline then failwith "worker did not register";
        Unix.sleepf 0.002
      done;
      Some w
    end
  in
  ignore (run_job conn.Proc.client (warmup_job kind) : record);
  { proc; worker; conn; state; setup = (Proc.lap clock).Proc.adjusted }

(* Peak RSS of the daemon plus its worker; read before stopping. *)
let peak_rss d =
  Proc.peak_rss_mb d.proc
  +. match d.worker with Some w -> Proc.peak_rss_mb w | None -> 0.

let stop d =
  (match Client.shutdown d.conn.Proc.client with _ -> () | exception _ -> ());
  Proc.close d.conn;
  let clean = Proc.reap d.proc in
  let clean_w = match d.worker with Some w -> Proc.reap w | None -> true in
  if not (clean && clean_w) then failwith "daemon or worker did not exit after shutdown"

let setups = 9

(* Set up [setups] times on fresh state directories and keep the last
   daemon; [setup_s] is the median set-up time. *)
let start_median env shape ~kind =
  let times = ref [] in
  let rec go i =
    let d = start env shape ~kind ~tag:(Printf.sprintf "s%d" i) in
    times := d.setup :: !times;
    if i + 1 < setups then begin
      stop d;
      go (i + 1)
    end
    else d
  in
  let d = go 0 in
  (d, Pstats.median (Array.of_list !times))

type outcome = {
  daemon : daemon;
  setup_s : float;
  loop : Proc.lap;  (** the timed loop's wall, stolen and steal-adjusted seconds *)
  records : record list;  (** cold jobs completed: the timed loop's, or repeat_warm's originals *)
  warm : (Jobs.op * float * Json.t option * record option) list;
      (** repeat_warm: each timed op with its latency and its answer *)
  cases : int;  (** cases executed (cold) or answered (warm) in the timed loop *)
  ops : int;
  failures : string list;
}

(* Safety valve: a timed loop never starts a new pass after this long, so
   a run stays inside its time limit on a slow host. *)
let max_loop_s = 100.

(* Cold workloads: whole passes in seeded order until [seconds] elapsed. *)
let cold_loop env d ~pass_jobs =
  let failures = ref [] and records = ref [] in
  Proc.sync ();
  let clock = Proc.clock () in
  let rec go pass =
    let elapsed = now () -. clock.Proc.wall0 in
    if pass > 0 && (elapsed >= env.seconds || elapsed >= max_loop_s) then ()
    else begin
      List.iter
        (fun j ->
          match run_job d.conn.Proc.client j with
          | r ->
              env.log
                (Printf.sprintf "job %d %s: %.3f s, cache %s" r.id (Jobs.describe j) r.latency
                   (Job.cache_name r.info.Job.cache));
              records := r :: !records
          | exception Op_failed msg -> failures := msg :: !failures)
        (pass_jobs ~seed:env.seed ~pass);
      go (pass + 1)
    end
  in
  go 0;
  (Proc.lap clock, List.rev !records, List.rev !failures)

let cases_of (r : record) =
  match r.job.Jobs.kind with
  | Jobs.Exhaustive -> r.info.Job.counts.Job.cases_total
  | Jobs.Adaptive -> r.info.Job.counts.Job.cases_done

let cold env workload =
  let shape = shape_of workload in
  let kind, pass_jobs =
    match workload with
    | "adaptive_cold" -> (Jobs.Adaptive, Jobs.adaptive_pass)
    | _ -> (Jobs.Exhaustive, Jobs.exhaustive_pass)
  in
  let d, setup_s = start_median env shape ~kind in
  env.log (Printf.sprintf "set up (median of %d): %.3f s" setups setup_s);
  let loop, records, failures = cold_loop env d ~pass_jobs in
  {
    daemon = d;
    setup_s;
    loop;
    records;
    warm = [];
    cases = List.fold_left (fun acc r -> acc + cases_of r) 0 records;
    ops = List.length records + List.length failures;
    failures;
  }

let query_frame ~bench ~site ~bit =
  Json.Obj
    [
      ("cmd", Json.String "boundary_query");
      ("bench", Json.String bench);
      ("site", Json.Int site);
      ("bit", Json.Int bit);
      ("model", Json.String "bit-flip-64");
    ]

(* Sites per kernel, for drawing boundary queries. *)
let sites bench = Ftb_trace.Golden.sites (Ftb_trace.Golden.run (Ftb_kernels.Suite.find bench))

let warm env =
  let shape = shape_of "repeat_warm" in
  let d, spawn_s = start_median env shape ~kind:Jobs.Exhaustive in
  let clock = Proc.clock () in
  let primed =
    List.map
      (fun j ->
        let r = run_job d.conn.Proc.client j in
        env.log (Printf.sprintf "priming job %d %s: %.3f s" r.id (Jobs.describe j) r.latency);
        r)
      (Jobs.warm_priming ~seed:env.seed)
  in
  let prime_s = (Proc.lap clock).Proc.adjusted in
  env.log (Printf.sprintf "set up (median of %d): %.3f s, priming %.3f s" setups spawn_s prime_s);
  let original (j : Jobs.job) = List.find (fun (r : record) -> r.job = j) primed in
  let site_counts = List.map (fun b -> (b, sites b)) Jobs.warm_query_kernels in
  let next = Jobs.warm_ops ~seed:env.seed ~sites:(fun b -> List.assoc b site_counts) in
  let failures = ref [] and warm = ref [] and cases = ref 0 and ops = ref 0 in
  Proc.sync ();
  let clock = Proc.clock () in
  while now () -. clock.Proc.wall0 < env.seconds do
    let op = next () in
    incr ops;
    let t = now () in
    match op with
    | Jobs.Resubmit j -> (
        match run_job d.conn.Proc.client j with
        | r ->
            let o = original j in
            if r.info.Job.cache <> Job.Cache_full || r.info.Job.counts <> o.info.Job.counts then
              failures :=
                Printf.sprintf "job %d (%s) was not served warm with the original's counts" r.id
                  (Jobs.describe j)
                :: !failures
            else cases := !cases + cases_of r;
            warm := (op, r.latency, None, Some r) :: !warm
        | exception Op_failed msg -> failures := msg :: !failures)
    | Jobs.Query { bench; site; bit } -> (
        match Proc.request d.conn (query_frame ~bench ~site ~bit) with
        | reply when Json.member "ok" reply = Some (Json.Bool true) ->
            incr cases;
            warm := (op, now () -. t, Some reply, None) :: !warm
        | reply -> failures := ("boundary_query: " ^ Json.to_string reply) :: !failures)
  done;
  let loop = Proc.lap clock in
  {
    daemon = d;
    setup_s = spawn_s +. prime_s;
    loop;
    records = primed;
    warm = List.rev !warm;
    cases = !cases;
    ops = !ops;
    failures = List.rev !failures;
  }

let run env workload = if workload = "repeat_warm" then warm env else cold env workload
