(* The traced run: the workload's job stream through an in-process
   [Ftb_service.Server] (over socketpairs, as the smoke tests host it),
   with timing shims on its pluggable seams, plus direct timed calls into
   the layers that have no seam, on the same job inputs. *)

module Client = Ftb_service.Client
module Job = Ftb_service.Job
module Json = Ftb_service.Json
module Server = Ftb_service.Server
module Engine = Ftb_campaign.Engine
module Checkpoint = Ftb_campaign.Checkpoint
module Fleet = Ftb_dist.Fleet
module Worker = Ftb_dist.Worker
module Golden = Ftb_trace.Golden
module Models = Ftb_inject.Models
module Sample_run = Ftb_inject.Sample_run
module Pool = Ftb_inject.Parallel.Pool
module Adaptive = Ftb_core.Adaptive
module Bstore = Ftb_plan.Boundary_store
module Rcheck = Ftb_plan.Round_checkpoint
module Compose = Ftb_compose.Compose
module Cstore = Ftb_compose.Store
module Rng = Ftb_util.Rng

let now = Unix.gettimeofday

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* Mean seconds of [f] over [n] calls. *)
let mean_time n f =
  let t0 = now () in
  for _ = 1 to n do
    ignore (Sys.opaque_identity (f ()))
  done;
  (now () -. t0) /. float_of_int n

(* Busy time and item counts, fed by shims that may run on several
   domains at once. *)
type acc = { lock : Mutex.t; mutable busy : float; mutable calls : int; mutable items : int }

let acc () = { lock = Mutex.create (); busy = 0.; calls = 0; items = 0 }

let add a ~dt ~items =
  Mutex.protect a.lock (fun () ->
      a.busy <- a.busy +. dt;
      a.calls <- a.calls + 1;
      a.items <- a.items + items)

let snap a = Mutex.protect a.lock (fun () -> (a.busy, a.calls, a.items))

type shims = {
  exec : acc;  (** run_local calls: one shard each *)
  wave : acc;  (** local run_wave calls: wall time per wave *)
  fwave : acc;  (** fleet run_wave calls *)
  commits : acc;  (** fleet commits (remote shard bytes) *)
  sample : acc;  (** Sample_run.run_case_model calls *)
  round : acc;  (** round executions *)
  resolve_ir : acc;
}

let shims () =
  {
    exec = acc ();
    wave = acc ();
    fwave = acc ();
    commits = acc ();
    sample = acc ();
    round = acc ();
    resolve_ir = acc ();
  }

let timed_run_local sh run_local ~lo ~hi =
  let t0 = now () in
  Fun.protect
    ~finally:(fun () -> add sh.exec ~dt:(now () -. t0) ~items:(hi - lo))
    (fun () -> run_local ~lo ~hi)

(* The local wave runner: each shard goes to the engine's own [run_local]
   on the daemon's domain count, like the built-in runner. *)
let local_runner sh ~domains =
  {
    Engine.wave_size = (fun () -> domains);
    run_wave =
      (fun tasks ~commit:_ ~run_local ->
        let t0 = now () in
        let results = Array.make (Array.length tasks) (Error "not run") in
        let one i =
          let t = tasks.(i) in
          results.(i) <-
            (match timed_run_local sh run_local ~lo:t.Engine.lo ~hi:t.Engine.hi with
            | () -> Ok ()
            | exception e -> Error (Printexc.to_string e))
        in
        if domains = 1 || Array.length tasks = 1 then Array.iteri (fun i _ -> one i) tasks
        else
          Pool.run (Pool.global ~domains ()) ~participants:domains ~chunk:1
            ~total:(Array.length tasks) (fun lo hi ->
              for i = lo to hi - 1 do
                one i
              done);
        add sh.wave ~dt:(now () -. t0) ~items:(Array.length tasks);
        Array.to_list (Array.mapi (fun i r -> (tasks.(i).Engine.shard, r)) results));
  }

(* The fleet's runner, counting commits against local runs. *)
let fleet_runner sh (r : Engine.wave_runner) =
  {
    r with
    Engine.run_wave =
      (fun tasks ~commit ~run_local ->
        let t0 = now () in
        let commit ~shard bytes =
          add sh.commits ~dt:0. ~items:(Bytes.length bytes);
          commit ~shard bytes
        in
        let res = r.Engine.run_wave tasks ~commit ~run_local:(timed_run_local sh run_local) in
        add sh.fwave ~dt:(now () -. t0) ~items:(Array.length tasks);
        res);
  }

let round_runner sh ~job_id:_ ~bench:_ ~fuel ~model ~golden ~round:_ ~cases =
  let t0 = now () in
  let samples =
    Array.map
      (fun case ->
        let s = now () in
        let r = Sample_run.run_case_model ?fuel model golden case in
        add sh.sample ~dt:(now () -. s) ~items:1;
        r)
      cases
  in
  add sh.round ~dt:(now () -. t0) ~items:(Array.length cases);
  samples

(* The in-process daemon, configured like `ftb serve` but with the shims
   on its seams. *)
type host = { server : Server.t; fleet : Fleet.t; state : string; sh : shims }

let host ~state ~domains =
  let sh = shims () in
  let fleet = Fleet.create () in
  let config =
    {
      (Server.default_config ~state_dir:state) with
      Server.domains;
      extension = Some (Fleet.extension fleet);
      wave_runner =
        Some
          (fun ~job_id ~bench ~fuel ~model ~golden ->
            match Fleet.wave_runner fleet ~job_id ~bench ~fuel ~model ~golden with
            | Some r -> Some (fleet_runner sh r)
            | None -> Some (local_runner sh ~domains));
      round_runner = Some (round_runner sh);
      resolve_ir =
        (fun name ->
          let r, dt = time (fun () -> Ftb_kernels.Suite.find_ir name) in
          add sh.resolve_ir ~dt ~items:1;
          r);
      provenance =
        Some
          (fun ~job_id ->
            Option.map
              (fun jp -> (jp.Fleet.jp_workers, jp.Fleet.jp_audited))
              (Fleet.job_provenance fleet ~job_id));
    }
  in
  let server = Server.create config in
  Server.start server;
  { server; fleet; state; sh }

let connect h =
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  ignore (Thread.create (fun () -> Server.serve_connection h.server theirs) ());
  mine

(* An in-process `ftb worker --domains 1`, detached by [stop]. *)
let attach_worker h =
  let stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        ignore (Worker.run (Worker.config ~domains:1 ~stop:(fun () -> Atomic.get stop) (fun () -> connect h))))
      ()
  in
  let deadline = now () +. 30. in
  while Fleet.live_workers h.fleet < 1 do
    if now () > deadline then failwith "in-process worker did not register";
    Thread.delay 0.002
  done;
  fun () ->
    Atomic.set stop true;
    Thread.join thread

(* One job as the traced client saw it, with the shim totals it caused
   (jobs run one at a time, so deltas attribute cleanly). *)
type jrec = {
  r : Live.record;
  probe : bool;
  t_submit : float;
  t_ack : float;
  t_done : float;
  t_last_event : float option;  (** last wave/round event *)
  d_exec : float * int * int;
  d_wave : float * int * int;
  d_fwave : float * int * int;
  d_commits : float * int * int;
  d_sample : float * int * int;
  d_round : float * int * int;
}

let delta a before = let b, c, i = snap a in let b0, c0, i0 = before in (b -. b0, c - c0, i - i0)

let run_job h client ~probe (j : Jobs.job) =
  let sh = h.sh in
  let before = List.map snap [ sh.exec; sh.wave; sh.fwave; sh.commits; sh.sample; sh.round ] in
  let t_submit = now () in
  let id =
    match Client.submit client (Live.spec_of j) with
    | Ok id -> id
    | Error e -> raise (Live.Op_failed ("submit: " ^ e.Client.message))
  in
  let t_ack = now () in
  let frames = ref 2 and snapshot = ref true and last = ref None in
  let on_event = function
    | Client.Progress _ when !snapshot -> incr frames; snapshot := false
    | Client.Progress _ | Client.Round _ -> incr frames; last := Some (now ())
    | Client.Worker_quarantined _ -> incr frames
  in
  let info =
    match Client.watch ~on_event client id with
    | Ok info when info.Job.status = Job.Completed -> info
    | Ok info -> raise (Live.Op_failed (Printf.sprintf "job %d ended %s" id (Job.status_name info.Job.status)))
    | Error e -> raise (Live.Op_failed ("watch: " ^ e.Client.message))
  in
  let t_done = now () in
  let d = List.map2 delta [ sh.exec; sh.wave; sh.fwave; sh.commits; sh.sample; sh.round ] before in
  let nth = List.nth d in
  {
    r = { Live.job = j; id; info; latency = t_done -. t_submit; frames = !frames };
    probe;
    t_submit;
    t_ack;
    t_done;
    t_last_event = !last;
    d_exec = nth 0;
    d_wave = nth 1;
    d_fwave = nth 2;
    d_commits = nth 3;
    d_sample = nth 4;
    d_round = nth 5;
  }

let sum f l = List.fold_left (fun a x -> a +. f x) 0. l
let isum f l = List.fold_left (fun a x -> a + f x) 0 l
let ratio a b = if b = 0. then 0. else a /. b
let busy (b, _, _) = b
let calls (_, c, _) = c
let items (_, _, i) = i

let started (x : jrec) = Option.value x.r.Live.info.Job.started ~default:x.t_submit

(* The warm stream runs a fixed number of operations (a multiple of the
   six-operation block), so its counts repeat exactly for a seed. *)
let warm_ops = 3000

type stream = {
  jobs : jrec list;  (** every job of the workload's own stream *)
  stream_s : float;  (** steal-adjusted, as the untraced loop's *)
  work : int;  (** cases (cold) or operations (warm) in the timed part *)
  ops : int;
  frames : int;
  failures : string list;
}

let run_stream (env : Live.env) workload h fd =
  let client = Client.of_fd fd in
  let jobs = ref [] and failures = ref [] in
  let go ~probe j =
    match run_job h client ~probe j with
    | x -> jobs := x :: !jobs; Some x
    | exception Live.Op_failed m -> failures := m :: !failures; None
  in
  let work = ref 0 and ops = ref 0 and qframes = ref 0 in
  let clock = ref (Proc.clock ()) in
  (match workload with
  | "repeat_warm" ->
      List.iter (fun j -> ignore (go ~probe:false j)) (Jobs.warm_priming ~seed:env.Live.seed);
      let sites b = Golden.sites (Oracle.golden b) in
      let next = Jobs.warm_ops ~seed:env.Live.seed ~sites in
      clock := Proc.clock ();
      for _ = 1 to warm_ops do
        incr ops;
        match next () with
        | Jobs.Resubmit j -> ignore (go ~probe:false j)
        | Jobs.Query { bench; site; bit } ->
            qframes := !qframes + 2;
            let reply = Proc.request { Proc.fd; client } (Live.query_frame ~bench ~site ~bit) in
            if Json.member "ok" reply <> Some (Json.Bool true) then
              failures := ("boundary_query: " ^ Json.to_string reply) :: !failures
      done;
      work := !ops
  | _ ->
      let pass_jobs = if workload = "adaptive_cold" then Jobs.adaptive_pass else Jobs.exhaustive_pass in
      let rec loop pass =
        let elapsed = now () -. !clock.Proc.wall0 in
        if pass > 0 && (elapsed >= env.Live.seconds || elapsed >= Live.max_loop_s) then ()
        else begin
          List.iter
            (fun j ->
              incr ops;
              match go ~probe:false j with
              | Some x -> work := !work + Live.cases_of x.r
              | None -> ())
            (pass_jobs ~seed:env.Live.seed ~pass);
          loop (pass + 1)
        end
      in
      loop 0);
  let t0 = !clock.Proc.wall0 in
  let stream_s = (Proc.lap !clock).Proc.adjusted in
  let jobs = List.rev !jobs in
  {
    jobs;
    stream_s;
    work = !work;
    ops = !ops;
    frames = isum (fun x -> x.r.Live.frames) (List.filter (fun x -> x.t_submit >= t0) jobs) + !qframes;
    failures = List.rev !failures;
  }

(* Probe jobs cover the paths a workload's own stream does not take, so
   every per-layer metric is measured on every workload. They use fuel
   values no stream uses, so they always miss the caches. *)
let probe_local = Jobs.exhaustive ~fuel:(Jobs.default_fuel + 997) "ir.stencil3" Jobs.bf64
let probe_fleet = Jobs.exhaustive ~fuel:(Jobs.default_fuel + 998) "ir.stencil3" Jobs.bf64
let probe_adaptive = { (Jobs.adaptive "ir.stencil3" 977) with Jobs.fuel = Jobs.default_fuel + 999 }

let is_cold_exhaustive (x : jrec) =
  x.r.Live.job.Jobs.kind = Jobs.Exhaustive && x.r.Live.info.Job.cache = Job.Cache_none

let is_cold_adaptive (x : jrec) =
  x.r.Live.job.Jobs.kind = Jobs.Adaptive && x.r.Live.info.Job.cache = Job.Cache_none

(* Families of jobs each metric group is computed over: the stream's own
   jobs when it has any of the kind, else the probe. *)
type families = { local_ex : jrec list; fleet_ex : jrec list; adaptive : jrec list }

let families ~workload h fd (s : stream) =
  let client = Client.of_fd fd in
  let fleet = workload = "fleet_cold" in
  let own = List.filter (fun x -> not x.probe) s.jobs in
  let pick mine probe ~fleet =
    if mine <> [] then mine
    else begin
      let detach = if fleet then Some (attach_worker h) else None in
      let x = run_job h client ~probe:true probe in
      Option.iter (fun f -> f ()) detach;
      [ x ]
    end
  in
  let local_ex = pick (if fleet then [] else List.filter is_cold_exhaustive own) probe_local ~fleet:false in
  let fleet_ex = pick (if fleet then List.filter is_cold_exhaustive own else []) probe_fleet ~fleet:true in
  let adaptive = pick (List.filter is_cold_adaptive own) probe_adaptive ~fleet:false in
  { local_ex; fleet_ex; adaptive }

let distinct l = List.sort_uniq compare l

(* Direct calls: kernel compilation, cone planning and the golden run. *)
let ir_metrics benches =
  let per =
    List.map
      (fun b ->
        let ir = Option.get (Ftb_kernels.Suite.find_ir b) in
        let compile = mean_time 3 (fun () -> Ftb_ir.Pipeline.to_program ir) in
        let opt = Ftb_ir.Pipeline.optimize ir in
        let plan, cone = time (fun () -> Ftb_ir.Cone.plan opt) in
        let covered = ref 0 in
        for site = 0 to plan.Ftb_trace.Program.cone_sites - 1 do
          if plan.Ftb_trace.Program.cone_case ~site <> None then incr covered
        done;
        let program = Ftb_kernels.Suite.find b in
        let golden = mean_time 5 (fun () -> Golden.run program) in
        (compile, cone, float_of_int !covered /. float_of_int plan.Ftb_trace.Program.cone_sites, golden))
      benches
  in
  let n = float_of_int (List.length per) in
  let avg f = sum f per /. n in
  [
    ("ir.compile_ms", 1000. *. avg (fun (c, _, _, _) -> c));
    ("ir.cone_plan_ms", 1000. *. avg (fun (_, c, _, _) -> c));
    ("ir.cone_covered_frac", avg (fun (_, _, c, _) -> c));
    ("trace.golden_ms", 1000. *. avg (fun (_, _, _, g) -> g));
  ]

let scratch = "traced-scratch"

let fresh name = Filename.concat scratch name

(* Direct calls: checkpoint writes and the compose store, on the local
   exhaustive family's own outcome bytes. *)
let campaign_compose_metrics h (xs : jrec list) =
  let per =
    List.mapi
      (fun i (x : jrec) ->
        let j = x.r.Live.job in
        let golden = Oracle.golden j.Jobs.bench in
        let ck =
          Checkpoint.load ~model:j.Jobs.model
            ~path:(Job.checkpoint_path ~state_dir:h.state x.r.Live.id)
            ~shard_size:x.r.Live.info.Job.spec.Job.shard_size golden
        in
        let path = Filename.concat scratch (Printf.sprintf "ck-%d" i) in
        let ck_s = mean_time 3 (fun () -> Checkpoint.save ~path ck) in
        let ck_bytes = (Unix.stat path).Unix.st_size in
        let store = Cstore.open_ ~root:(fresh (Printf.sprintf "compose-%d" i)) in
        let ir = Option.get (Ftb_kernels.Suite.find_ir j.Jobs.bench) in
        let fuel = Some j.Jobs.fuel in
        let planned, miss = time (fun () -> Compose.probe store ~ir ~golden ~model:j.Jobs.model ~fuel) in
        let harvest =
          match planned with
          | Some p -> snd (time (fun () -> Compose.harvest store p ~outcomes:ck.Checkpoint.outcomes))
          | None -> 0.
        in
        Compose.put_boundary store ~ir ~model:j.Jobs.model ~fuel
          ~golden_fp:(Checkpoint.fingerprint_of_golden golden) ~sites:(Golden.sites golden)
          ~outcomes:ck.Checkpoint.outcomes;
        let hit = mean_time 5 (fun () -> Compose.probe_boundary store ~ir ~model:j.Jobs.model ~fuel) in
        (ck_s, ck_bytes, miss, harvest, hit))
      xs
  in
  let n = float_of_int (List.length per) in
  let avg f = sum f per /. n in
  [
    ("campaign.checkpoint_ms", 1000. *. avg (fun (c, _, _, _, _) -> c));
    ("campaign.checkpoint_bytes", avg (fun (_, b, _, _, _) -> float_of_int b));
    ("compose.probe_miss_ms", 1000. *. avg (fun (_, _, m, _, _) -> m));
    ("compose.harvest_ms", 1000. *. avg (fun (_, _, _, hv, _) -> hv));
    ("compose.probe_hit_ms", 1000. *. avg (fun (_, _, _, _, ht) -> ht));
  ]

(* Direct calls: the §3.4 round state machine ([Adaptive.run_model]'s own
   loop) on each adaptive job's inputs, with a round checkpoint after
   every fold, then the boundary store. Also checks the in-process result
   against the daemon's stored boundary. *)
let core_plan_metrics h (xs : jrec list) =
  let bstore_daemon = Bstore.open_ ~root:(Server.boundaries_dir ~state_dir:h.state) in
  let failures = ref [] in
  let per =
    List.mapi
      (fun i (x : jrec) ->
        let j = x.r.Live.job in
        let golden = Oracle.golden j.Jobs.bench in
        let config = Adaptive.default_config in
        let rng = Rng.create ~seed:j.Jobs.seed in
        let st = Adaptive.state_create ~config ~spec:j.Jobs.model golden in
        let plan_s = ref 0. and fold_s = ref 0. and exec_s = ref 0. and ck_s = ref 0. in
        let ck_path = Filename.concat scratch (Printf.sprintf "round-%d" i) in
        let rec loop () =
          let drawn, dt = time (fun () -> Adaptive.plan_round st rng) in
          plan_s := !plan_s +. dt;
          match drawn with
          | None -> Adaptive.Pool_exhausted
          | Some cases -> (
              let samples, dt =
                time (fun () -> Array.map (Sample_run.run_case_model ~fuel:j.Jobs.fuel j.Jobs.model golden) cases)
              in
              exec_s := !exec_s +. dt;
              let verdict, dt = time (fun () -> Adaptive.fold_round st ~cases ~samples) in
              fold_s := !fold_s +. dt;
              let t0 = now () in
              Rcheck.save ~path:ck_path
                {
                  Rcheck.name = j.Jobs.bench;
                  sites = Golden.sites golden;
                  spec = j.Jobs.model;
                  fuel = Some j.Jobs.fuel;
                  fingerprint = Checkpoint.fingerprint_of_golden golden;
                  config;
                  seed = j.Jobs.seed;
                  rng_state = Rng.state rng;
                  rounds = Adaptive.state_rounds st;
                  samples = Adaptive.state_samples st;
                  pending = None;
                  stop = None;
                };
              ck_s := !ck_s +. (now () -. t0);
              match verdict with `Stop reason -> reason | `Continue -> loop ())
        in
        let reason = loop () in
        let result = Adaptive.finish st reason in
        let rounds = result.Adaptive.rounds in
        let samples = Array.length result.Adaptive.samples in
        let masked, _, _ = Sample_run.count_outcomes result.Adaptive.samples in
        (match Bstore.find bstore_daemon ~key:(Oracle.store_key j) with
        | Some e
          when e.Bstore.samples = samples
               && Oracle.digest e.Bstore.thresholds
                  = Oracle.digest result.Adaptive.boundary.Ftb_core.Boundary.thresholds -> ()
        | _ ->
            failures :=
              Printf.sprintf "traced job %d (%s): daemon boundary differs from the round state machine"
                x.r.Live.id (Jobs.describe j)
              :: !failures);
        let entry =
          Bstore.entry_of_result ~bench:j.Jobs.bench ~spec:j.Jobs.model ~fuel:(Some j.Jobs.fuel) ~config
            ~seed:j.Jobs.seed ~created:(float_of_int i) golden result
        in
        let store = Bstore.open_ ~root:(fresh (Printf.sprintf "bstore-%d" i)) in
        let put = snd (time (fun () -> Bstore.put store entry)) in
        let find = mean_time 20 (fun () -> Bstore.find_latest store ~bench:j.Jobs.bench ()) in
        let qrng = Rng.create ~seed:(j.Jobs.seed + 1) in
        let width = Models.spec_width j.Jobs.model in
        let qs = Array.init 20_000 (fun _ -> (Rng.int qrng entry.Bstore.sites, Rng.int qrng width)) in
        let query =
          snd (time (fun () -> Array.iter (fun (site, bit) -> ignore (Sys.opaque_identity (Bstore.query entry ~site ~bit))) qs))
          /. float_of_int (Array.length qs)
        in
        let serial = !plan_s +. !exec_s +. !fold_s in
        ( (!plan_s, !fold_s, rounds, samples, masked, serial),
          (!ck_s /. float_of_int (max 1 rounds), put, find, query) ))
      xs
  in
  let n = float_of_int (List.length per) in
  let avg f = sum f per /. n in
  let tot_rounds = isum (fun ((_, _, r, _, _, _), _) -> r) per in
  let tot_samples = isum (fun ((_, _, _, s, _, _), _) -> s) per in
  ( [
      ("core.plan_round_ms", 1000. *. sum (fun ((p, _, _, _, _, _), _) -> p) per /. float_of_int (max 1 tot_rounds));
      ("core.fold_ms", 1000. *. sum (fun ((_, f, _, _, _, _), _) -> f) per /. float_of_int (max 1 tot_rounds));
      ("core.samples_per_boundary", float_of_int tot_samples /. n);
      ("core.masked_sample_frac", ratio (float_of_int (isum (fun ((_, _, _, _, m, _), _) -> m) per)) (float_of_int tot_samples));
      ("core.serial_boundary_s", avg (fun ((_, _, _, _, _, s), _) -> s));
      ("plan.rounds_per_boundary", float_of_int tot_rounds /. n);
      ("plan.round_checkpoint_ms", 1000. *. avg (fun (_, (c, _, _, _)) -> c));
      ("plan.store_put_ms", 1000. *. avg (fun (_, (_, p, _, _)) -> p));
      ("plan.store_find_latest_ms", 1000. *. avg (fun (_, (_, _, f, _)) -> f));
      ("plan.store_query_us", 1e6 *. avg (fun (_, (_, _, _, q)) -> q));
    ],
    !failures )

(* Metrics read off the live path: the shim totals and the client's frame
   timestamps. *)
let live_metrics ~domains (fam : families) (s : stream) =
  let wall (x : jrec) = x.t_done -. x.t_submit in
  let lx = fam.local_ex and fx = fam.fleet_ex and ax = fam.adaptive in
  let exec_busy = sum (fun x -> busy x.d_exec) lx in
  let exec_cases = isum (fun x -> items x.d_exec) lx in
  let waves = isum (fun x -> calls x.d_wave) lx in
  let wave_gap =
    sum (fun x -> Option.fold ~none:0. ~some:(fun t -> t -. started x) x.t_last_event -. busy x.d_wave) lx
  in
  let sample_busy = sum (fun x -> busy x.d_sample) ax in
  let samples = isum (fun x -> calls x.d_sample) ax in
  let rounds = isum (fun x -> calls x.d_round) ax in
  let round_gap =
    sum (fun x -> Option.fold ~none:0. ~some:(fun t -> t -. started x) x.t_last_event -. busy x.d_round) ax
  in
  let all = s.jobs in
  let queued = List.filter (fun (x : jrec) -> x.r.Live.info.Job.started <> None) all in
  let finals = List.filter (fun (x : jrec) -> x.t_last_event <> None) (lx @ fx @ ax) in
  let fwave_ms = 1000. *. ratio (sum (fun x -> busy x.d_fwave) fx) (float_of_int (isum (fun x -> calls x.d_fwave) fx)) in
  let commits = isum (fun x -> calls x.d_commits) fx in
  let fleet_local = isum (fun x -> calls x.d_exec) fx in
  let ex_submits = List.filter (fun (x : jrec) -> x.r.Live.job.Jobs.kind = Jobs.Exhaustive && not x.probe) all in
  [
    ("inject.executor_busy_s", exec_busy);
    ("inject.executor_cases_per_busy_s", ratio (float_of_int exec_cases) exec_busy);
    ("inject.executor_busy_share", ratio exec_busy (float_of_int domains *. sum wall lx));
    ("inject.sample_us", 1e6 *. ratio sample_busy (float_of_int samples));
    ("inject.sample_busy_share", ratio sample_busy (sum wall ax));
    ("campaign.waves_per_job", float_of_int waves /. float_of_int (List.length lx));
    ("campaign.wave_gap_ms", 1000. *. ratio wave_gap (float_of_int waves));
    ("plan.round_overhead_ms", 1000. *. ratio round_gap (float_of_int rounds));
    ( "compose.hit_ratio",
      ratio
        (float_of_int (List.length (List.filter (fun (x : jrec) -> x.r.Live.info.Job.cache <> Job.Cache_none) ex_submits)))
        (float_of_int (List.length ex_submits)) );
    ("service.submit_rtt_ms", 1000. *. ratio (sum (fun x -> x.t_ack -. x.t_submit) all) (float_of_int (List.length all)));
    ( "service.queue_wait_ms",
      1000.
      *. ratio
           (sum (fun (x : jrec) -> started x -. x.r.Live.info.Job.submitted) queued)
           (float_of_int (List.length queued)) );
    ( "service.finalize_ms",
      1000. *. ratio (sum (fun x -> x.t_done -. Option.get x.t_last_event) finals) (float_of_int (List.length finals)) );
    ("service.frames_per_op", ratio (float_of_int s.frames) (float_of_int s.ops));
    ("dist.wave_ms", fwave_ms);
    ("dist.remote_commit_frac", ratio (float_of_int commits) (float_of_int (commits + fleet_local)));
  ]

let run (env : Live.env) workload ~untraced =
  let shape = Live.shape_of workload in
  Unix.mkdir scratch 0o755;
  let state = "traced-state" in
  let h = host ~state ~domains:shape.Live.domains in
  let fd = connect h in
  let detach = if shape.Live.fleet then Some (attach_worker h) else None in
  ignore (run_job h (Client.of_fd fd) ~probe:true (Live.warmup_job
    (if workload = "adaptive_cold" then Jobs.Adaptive else Jobs.Exhaustive)));
  let bytes0 = Proc.du state in
  let s = run_stream env workload h fd in
  let state_bytes = Proc.du state - bytes0 in
  Option.iter (fun f -> f ()) detach;
  env.Live.log (Printf.sprintf "traced stream: %.1f s, %d ops" s.stream_s s.ops);
  let fam = families ~workload h fd s in
  let fleet_stats = Fleet.stats h.fleet in
  let store_bytes = Proc.du (Server.cache_dir ~state_dir:state) in
  (* Stop the in-process daemon before reading its state directory. *)
  (match Client.shutdown (Client.of_fd fd) with _ -> () | exception _ -> ());
  Server.join h.server;
  let probes = List.filter (fun x -> x.probe) (fam.local_ex @ fam.fleet_ex) in
  let exhaustive_records = List.map (fun x -> x.r) (List.filter is_cold_exhaustive (s.jobs @ probes)) in
  let gate = Oracle.exhaustive ~state exhaustive_records in
  let best =
    let inputs = distinct (List.map (fun (r : Live.record) -> (r.Live.job.Jobs.bench, r.Live.job.Jobs.model)) exhaustive_records) in
    let cases, secs =
      List.fold_left
        (fun (c, t) (bench, model) ->
          let gt, dt = Oracle.timed_reference (Jobs.exhaustive bench model) in
          (c + Ftb_inject.Ground_truth.cases gt, t +. dt))
        (0, 0.) inputs
    in
    float_of_int cases /. secs
  in
  let benches = distinct (List.map (fun x -> x.r.Live.job.Jobs.bench) s.jobs) in
  let ir = ir_metrics benches in
  let cc = campaign_compose_metrics h fam.local_ex in
  let cp, cp_failures = core_plan_metrics h fam.adaptive in
  let rate_untraced = List.assoc (if workload = "repeat_warm" then "ops_per_s" else "cases_per_s") untraced in
  let rate_traced = float_of_int s.work /. s.stream_s in
  let values =
    live_metrics ~domains:shape.Live.domains fam s
    @ ir @ cc @ cp
    @ [
        ("inject.best_path_cases_per_s", best);
        ("compose.store_bytes", float_of_int store_bytes);
        ("service.state_bytes_per_op", float_of_int state_bytes /. float_of_int s.ops);
        ("dist.lease_expiries", float_of_int fleet_stats.Fleet.expired);
        ("dist.audit_reexec_shards", float_of_int fleet_stats.Fleet.audited);
        ("ir.resolve_ms", 1000. *. ratio (busy (snap h.sh.resolve_ir)) (float_of_int (calls (snap h.sh.resolve_ir))));
        ("trace.overhead_frac", (rate_untraced /. rate_traced) -. 1.);
      ]
  in
  (values, s.failures @ gate @ cp_failures)
