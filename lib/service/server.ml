module Golden = Ftb_trace.Golden
module Engine = Ftb_campaign.Engine
module Checkpoint = Ftb_campaign.Checkpoint
module Models = Ftb_inject.Models
module Pool = Ftb_inject.Parallel.Pool
module Compose = Ftb_compose.Compose
module Store = Ftb_compose.Store
module Adaptive = Ftb_core.Adaptive
module Adaptive_engine = Ftb_plan.Adaptive_engine
module Bstore = Ftb_plan.Boundary_store

type config = {
  state_dir : string;
  capacity : int;
  domains : int;
  checkpoint_every : int;
  stuck_after : float option;
  resolve : string -> Ftb_trace.Program.t;
  resolve_ir : string -> Ftb_ir.Ir.t option;
  cache : bool;
  extension : (cmd:string -> Json.t -> Json.t option) option;
  wave_runner :
    (job_id:int ->
    bench:string ->
    fuel:int option ->
    model:Models.spec ->
    golden:Golden.t ->
    Engine.wave_runner option)
    option;
  round_runner :
    (job_id:int ->
    bench:string ->
    fuel:int option ->
    model:Models.spec ->
    golden:Golden.t ->
    Adaptive_engine.exec)
    option;
  provenance : (job_id:int -> (string list * bool) option) option;
}

let default_config ~state_dir =
  {
    state_dir;
    capacity = 64;
    domains = 1;
    checkpoint_every = 1;
    stuck_after = None;
    resolve = Ftb_kernels.Suite.find;
    resolve_ir = Ftb_kernels.Suite.find_ir;
    cache = true;
    extension = None;
    wave_runner = None;
    round_runner = None;
    provenance = None;
  }

let cache_dir ~state_dir = Filename.concat state_dir "cache"
let boundaries_dir ~state_dir = Filename.concat state_dir "boundaries"

(* Why a running job was asked to stop: a user [cancel] is terminal, a
   [Drain] (shutdown/SIGTERM) suspends the job back to the queue so a
   restarted daemon resumes it from its checkpoint. *)
type cancel_reason = User | Drain

type running = { job_id : int; cancel : cancel_reason option Atomic.t }

(* One [watch] subscription. Every frame to [fd] is written under
   [sub_write], so no two threads ever interleave frames on one
   descriptor. The subscribing connection thread registers the
   subscription with [sub_write] already held and releases it once its
   ok and snapshot frames are out: an event published meanwhile waits
   for them instead of being lost. [sub_after] is the last event
   sequence number the client already saw (reconnect resume) or the
   snapshot's; frames at or below it are skipped. *)
type sub = {
  sub_job : int;
  sub_fd : Unix.file_descr;
  sub_after : int;
  sub_write : Mutex.t;
  mutable sub_live : bool;
}

type t = {
  config : config;
  mutex : Mutex.t;
  wake : Condition.t;  (* scheduler wake-up: submit / cancel / shutdown *)
  sub_done : Condition.t;  (* broadcast whenever a subscription finishes *)
  queue : Job_queue.t;
  jobs : (int, Job.info) Hashtbl.t;  (* every job ever seen, by id *)
  mutable next_id : int;
  mutable running : running option;
      (* at most one job runs at a time; the one cone plan a process
         retains (Ftb_ir.Pipeline.to_program) relies on it *)
  mutable stopping : bool;
  mutable scheduler : Thread.t option;
  mutable scheduler_done : bool;
  mutable subs : sub list;
  mutable conns : Unix.file_descr list;  (* open client connections *)
  sigterm : bool Atomic.t;
  pool : Pool.t option;  (* one warm handle shared by every campaign *)
  store : Store.t option;  (* compositional profile cache, under <state>/cache *)
  bstore : Bstore.t option;  (* adaptive boundary store, under <state>/boundaries *)
  seqs : (int, int) Hashtbl.t;  (* job id -> last event sequence number *)
  idems : (string, int) Hashtbl.t;  (* idempotency key -> job id *)
}

let now () = Unix.gettimeofday ()

(* Event sequence numbers are per job and strictly increasing, and they
   survive daemon restarts without being persisted: each new seq is at
   least the current time in microseconds, so a fresh daemon can never
   reissue a number an old watcher already saw. Clients resume a watch
   with the last seq they processed and dedupe on it. *)
let next_seq t id =
  let last = match Hashtbl.find_opt t.seqs id with Some s -> s | None -> 0 in
  let s = max (last + 1) (int_of_float (now () *. 1e6)) in
  Hashtbl.replace t.seqs id s;
  s

let current_seq t id =
  match Hashtbl.find_opt t.seqs id with Some s -> s | None -> 0

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Job.save is called under the lock everywhere, so on-disk job.json
   updates are serialized and the last write always reflects the newest
   in-memory state. *)
let set_job t job =
  Hashtbl.replace t.jobs job.Job.id job;
  Job.save ~state_dir:t.config.state_dir job

let create config =
  if config.capacity <= 0 then invalid_arg "Server.create: capacity must be positive";
  if config.domains <= 0 then invalid_arg "Server.create: domains must be positive";
  if config.checkpoint_every <= 0 then
    invalid_arg "Server.create: checkpoint_every must be positive";
  Ftb_inject.Persist.mkdir_p config.state_dir;
  let loaded = Job.load_all ~state_dir:config.state_dir in
  let queue = Job_queue.create ~capacity:config.capacity in
  let jobs = Hashtbl.create 64 in
  let idems = Hashtbl.create 16 in
  let next_id = ref 1 in
  let requeue = ref [] in
  List.iter
    (fun (job : Job.info) ->
      next_id := max !next_id (job.Job.id + 1);
      let job =
        (* A job found Running was interrupted by a daemon crash; its
           checkpoint (if any) is intact, so it simply re-queues. *)
        match job.Job.status with
        | Job.Running | Job.Queued -> { job with Job.status = Job.Queued }
        | _ -> job
      in
      Hashtbl.replace jobs job.Job.id job;
      (* Idempotency keys of every persisted job keep deduplicating after
         a restart — a client retrying a submission across the crash maps
         to the job it already created. *)
      (match job.Job.idem with
      | Some key -> Hashtbl.replace idems key job.Job.id
      | None -> ());
      if job.Job.status = Job.Queued then requeue := job :: !requeue)
    loaded;
  (* Restart re-queueing respects the capacity bound; overflow jobs fail
     with a typed reason instead of resurrecting an unbounded queue. *)
  let overflow = Job_queue.restore_all queue (List.rev !requeue) in
  List.iter
    (fun (job : Job.info) ->
      Hashtbl.replace jobs job.Job.id
        {
          job with
          Job.status = Job.Failed "evicted: queue over capacity after restart";
          finished = Some (now ());
        })
    overflow;
  let t =
    {
      config;
      mutex = Mutex.create ();
      wake = Condition.create ();
      sub_done = Condition.create ();
      queue;
      jobs;
      next_id = !next_id;
      running = None;
      stopping = false;
      scheduler = None;
      scheduler_done = false;
      subs = [];
      conns = [];
      sigterm = Atomic.make false;
      pool = (if config.domains > 1 then Some (Pool.global ~domains:config.domains ()) else None);
      store =
        (if config.cache then
           Some (Store.open_ ~root:(cache_dir ~state_dir:config.state_dir))
         else None);
      bstore =
        (if config.cache then
           Some (Bstore.open_ ~root:(boundaries_dir ~state_dir:config.state_dir))
         else None);
      seqs = Hashtbl.create 64;
      idems;
    }
  in
  (* Persist the Running -> Queued demotions (and any restart evictions)
     so a crash during startup re-observes the same state. *)
  with_lock t (fun () ->
      Hashtbl.iter
        (fun _ (job : Job.info) ->
          match job.Job.status with
          | Job.Queued | Job.Failed _ -> Job.save ~state_dir:config.state_dir job
          | _ -> ())
        t.jobs);
  t

(* ------------------------------------------------------------------ *)
(* Events                                                              *)

let progress_event ~id ~seq ~(p : Engine.progress) ~rate =
  Json.Obj
    [
      ("event", Json.String "progress");
      ("id", Json.Int id);
      ("seq", Json.Int seq);
      ("cases_done", Json.Int p.Engine.cases_done);
      ("cases_total", Json.Int p.Engine.cases_total);
      ("shards_done", Json.Int p.Engine.shards_done);
      ("shards_total", Json.Int p.Engine.shards_total);
      ("masked", Json.Int p.Engine.masked);
      ("sdc", Json.Int p.Engine.sdc);
      ("crash", Json.Int p.Engine.crash);
      ("cases_per_sec", Json.Float rate);
    ]

let snapshot_event ~seq (job : Job.info) =
  let c = job.Job.counts in
  progress_event ~id:job.Job.id ~seq
    ~p:
      {
        Engine.cases_done = c.Job.cases_done;
        cases_total = c.Job.cases_total;
        shards_done = 0;
        shards_total = 0;
        masked = c.Job.masked;
        sdc = c.Job.sdc;
        crash = c.Job.crash;
      }
    ~rate:0.

let done_event ~seq (job : Job.info) =
  Json.Obj
    [
      ("event", Json.String "done");
      ("seq", Json.Int seq);
      ("job", Job.info_to_json job);
    ]

(* One adaptive round as its watchers see it: the round's own draw and
   outcome tallies plus the campaign-cumulative sample count, so a
   watcher can follow §3.4 convergence live without reconstructing it
   from progress deltas. *)
let round_event ~id ~seq ~round ~drawn ~masked ~sdc ~crash ~samples ~total =
  Json.Obj
    [
      ("event", Json.String "round");
      ("id", Json.Int id);
      ("seq", Json.Int seq);
      ("round", Json.Int round);
      ("drawn", Json.Int drawn);
      ("masked", Json.Int masked);
      ("sdc", Json.Int sdc);
      ("crash", Json.Int crash);
      ("samples_total", Json.Int samples);
      ("cases_total", Json.Int total);
    ]

let quarantine_event ~id ~seq ~worker ~disputes =
  Json.Obj
    [
      ("event", Json.String "worker_quarantined");
      ("id", Json.Int id);
      ("seq", Json.Int seq);
      ("worker", Json.String worker);
      ("disputes", Json.Int disputes);
    ]

let safe_write fd json = try Wire.write fd json with _ -> ()

(* Detach every subscription of [id] (under the lock) and hand the frames
   to the caller's thread: once detached, no other thread writes to those
   descriptors. *)
let finish_subs t id event =
  let mine =
    with_lock t (fun () ->
        let mine, rest = List.partition (fun s -> s.sub_job = id && s.sub_live) t.subs in
        t.subs <- rest;
        List.iter (fun s -> s.sub_live <- false) mine;
        Condition.broadcast t.sub_done;
        mine)
  in
  List.iter (fun s -> Mutex.protect s.sub_write (fun () -> safe_write s.sub_fd event)) mine

(* Watcher gone: drop the subscription so its connection thread unblocks
   and the scheduler stops writing to a dead pipe. *)
let drop_sub t s =
  with_lock t (fun () ->
      s.sub_live <- false;
      t.subs <- List.filter (fun s' -> s' != s) t.subs;
      Condition.broadcast t.sub_done)

let stream_to_subs t id ~seq event =
  let targets =
    with_lock t (fun () ->
        List.filter_map
          (fun s ->
            if s.sub_job = id && s.sub_live && seq > s.sub_after then Some s
            else None)
          t.subs)
  in
  List.iter
    (fun s ->
      match Mutex.protect s.sub_write (fun () -> Wire.write s.sub_fd event) with
      | () -> ()
      | exception _ -> drop_sub t s)
    targets

(* Surface a fleet quarantine to whoever is watching the currently
   running job. Called from the fleet's on_quarantine hook (the
   scheduler thread, outside the fleet mutex, so the lock order here is
   server-only); a daemon with no running job drops the event — the
   quarantine itself lives in the fleet and is visible via
   [ftb workers]. *)
let notify_quarantine t ~worker ~disputes =
  match
    with_lock t (fun () ->
        match t.running with
        | Some { job_id; _ } -> Some (job_id, next_seq t job_id)
        | None -> None)
  with
  | None -> ()
  | Some (id, seq) ->
      stream_to_subs t id ~seq (quarantine_event ~id ~seq ~worker ~disputes)

let store t = t.store
let boundary_store t = t.bstore

(* ------------------------------------------------------------------ *)
(* Job execution (scheduler thread only)                               *)

let counts_of_progress (p : Engine.progress) =
  {
    Job.cases_done = p.Engine.cases_done;
    cases_total = p.Engine.cases_total;
    masked = p.Engine.masked;
    sdc = p.Engine.sdc;
    crash = p.Engine.crash;
  }

(* One progress wave: beat the watchdog heartbeat, refresh the in-memory
   counts (never those of a job the watchdog already declared stuck —
   an abandoned runner must not mutate a terminal job), allocate the
   event's sequence number, and stream it. *)
let publish_progress t id ~heartbeat ~(p : Engine.progress) ~rate =
  Atomic.set heartbeat (now ());
  let seq =
    with_lock t (fun () ->
        (match Hashtbl.find_opt t.jobs id with
        | Some job when not (Job.is_terminal job.Job.status) ->
            Hashtbl.replace t.jobs id { job with Job.counts = counts_of_progress p }
        | Some _ | None -> ());
        next_seq t id)
  in
  stream_to_subs t id ~seq (progress_event ~id ~seq ~p ~rate)

(* Provenance token for an exhaustive campaign's harvest: [prov_local]
   unless remote workers computed surviving bytes, then the compose
   [fleet:*] token so downstream trust decisions see audit coverage. *)
let prov_of_job t ~job_id =
  match t.config.provenance with
  | None -> Bstore.prov_local
  | Some f -> (
      match f ~job_id with
      | None | Some ([], _) -> Bstore.prov_local
      | Some (workers, audited) -> (
          try Ftb_compose.Profile.prov_fleet ~audited ~workers
          with Invalid_argument _ ->
            (* An unsanitized name here is a wiring bug; fall back to the
               untrusted shape rather than refuse the harvest. *)
            Ftb_compose.Profile.prov_fleet ~audited:false ~workers:[]))

let run_exhaustive t (job : Job.info) cancel ~heartbeat =
  let spec = job.Job.spec in
  let golden = Golden.run (t.config.resolve spec.Job.bench) in
  let checkpoint = Job.checkpoint_path ~state_dir:t.config.state_dir job.Job.id in
  (* Compositional cache: when the benchmark has an IR form, look every
     section up in the profile store and seed the job's checkpoint with
     the cached bytes — the engine then schedules only the missed
     sections' shards (a fully-seeded checkpoint schedules zero waves and
     touches neither the pool nor the worker fleet). Seeding only applies
     to a job with no checkpoint yet: a resumed job keeps its own
     progress, which already subsumes anything the cache knows. *)
  let cached =
    match t.store with
    | None -> None
    | Some store -> (
        match t.config.resolve_ir spec.Job.bench with
        | exception _ -> None
        | None -> None
        | Some ir -> Some (store, ir))
  in
  let planned =
    Option.bind cached (fun (store, ir) ->
        Compose.probe ~trust_unaudited:spec.Job.trust_cache store ~ir ~golden
          ~model:spec.Job.model ~fuel:spec.Job.fuel)
  in
  let cache_level =
    match planned with
    | Some p when Compose.any_hit p && not (Sys.file_exists checkpoint) ->
        Checkpoint.save ~path:checkpoint
          (Compose.seed_checkpoint p golden ~shard_size:spec.Job.shard_size);
        if Compose.full_hit p then Job.Cache_full else Job.Cache_partial
    | _ -> Job.Cache_none
  in
  let job = { job with Job.cache = cache_level } in
  if cache_level <> Job.Cache_none then with_lock t (fun () -> set_job t job);
  let last = ref (now (), None) in
  let latest = ref job.Job.counts in
  let progress (p : Engine.progress) =
    let t_now = now () in
    let t_prev, prev_cases = !last in
    let rate =
      match prev_cases with
      | Some prev when t_now > t_prev ->
          float_of_int (p.Engine.cases_done - prev) /. (t_now -. t_prev)
      | _ -> 0.
    in
    last := (t_now, Some p.Engine.cases_done);
    latest := counts_of_progress p;
    publish_progress t job.Job.id ~heartbeat ~p ~rate
  in
  let config =
    {
      Engine.default_config with
      Engine.shard_size = spec.Job.shard_size;
      checkpoint_every = t.config.checkpoint_every;
      domains = t.config.domains;
      fuel = spec.Job.fuel;
      model = spec.Job.model;
      resume = true;
      on_invalid_checkpoint = Engine.Restart;
      progress = Some progress;
      cancel = Some (fun () -> Atomic.get cancel <> None);
      pool = t.pool;
      runner =
        (match t.config.wave_runner with
        | Some make ->
            make ~job_id:job.Job.id ~bench:spec.Job.bench ~fuel:spec.Job.fuel
              ~model:spec.Job.model ~golden
        | None -> None);
    }
  in
  match Engine.run ~config ~checkpoint golden with
  | report ->
      let gt = report.Engine.ground_truth in
      (* Harvest the completed campaign: store each missed section's
         profile and refresh the whole-boundary artifact, so the next
         identical submission is a millisecond full hit at submit time.
         Harvesting is best-effort — a full store or I/O error costs
         future cache hits, never this job's result. *)
      (match cached with
      | Some (store, ir) -> (
          try
            let outcomes = gt.Ftb_inject.Ground_truth.outcomes in
            (* Provenance: did a fleet compute (part of) these bytes, and
               did every surviving remote shard pass audit? Profiles born
               of unaudited fleet bytes are refused at probe time unless
               the submitter passes --trust-cache. *)
            let prov = prov_of_job t ~job_id:job.Job.id in
            (match planned with
            | Some p -> Compose.harvest ~prov store p ~outcomes
            | None -> ());
            Compose.put_boundary ~prov store ~ir ~model:spec.Job.model
              ~fuel:spec.Job.fuel
              ~golden_fp:(Checkpoint.fingerprint_of_golden golden)
              ~sites:(Golden.sites golden) ~outcomes
          with _ -> ())
      | None -> ());
      let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
      Ftb_inject.Ground_truth.counts gt ~masked ~sdc ~crash;
      let total = Models.total_cases spec.Job.model ~sites:(Golden.sites golden) in
      let counts =
        {
          Job.cases_done = total;
          cases_total = total;
          masked = !masked;
          sdc = !sdc;
          crash = !crash;
        }
      in
      { job with Job.status = Job.Completed; counts; finished = Some (now ()) }
  | exception Engine.Cancelled -> (
      match Atomic.get cancel with
      | Some Drain ->
          (* Suspended by the drain: the checkpoint is on disk, so the job
             goes back to the queue and resumes on the next daemon start. *)
          { job with Job.status = Job.Queued; counts = !latest }
      | Some User | None ->
          { job with Job.status = Job.Cancelled; counts = !latest; finished = Some (now ()) })

exception Stop_sampling of cancel_reason

let run_sample t (job : Job.info) cancel ~heartbeat ~fraction ~seed =
  let spec = job.Job.spec in
  let golden = Golden.run (t.config.resolve spec.Job.bench) in
  let rng = Ftb_util.Rng.create ~seed in
  (* Every model draws from its own dense case space and classifies each
     case outcome-only and contained, so a kernel exception counts as a
     crash instead of failing the job. *)
  let cases = Ftb_inject.Sample_run.draw_uniform_model rng spec.Job.model golden ~fraction in
  let count_chunk =
    Ftb_inject.Sample_run.count_cases_model ?fuel:spec.Job.fuel spec.Job.model golden
  in
  let total = Array.length cases in
  let chunk = spec.Job.shard_size in
  let shards_total = (total + chunk - 1) / max 1 chunk in
  let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
  let done_ = ref 0 and shard = ref 0 in
  let last = ref (now (), 0) in
  match
    while !done_ < total do
      (match Atomic.get cancel with
      | Some reason -> raise (Stop_sampling reason)
      | None -> ());
      let len = min chunk (total - !done_) in
      let m, s, c = count_chunk (Array.sub cases !done_ len) in
      masked := !masked + m;
      sdc := !sdc + s;
      crash := !crash + c;
      done_ := !done_ + len;
      incr shard;
      let t_now = now () in
      let t_prev, prev_done = !last in
      let rate =
        if t_now > t_prev then float_of_int (!done_ - prev_done) /. (t_now -. t_prev)
        else 0.
      in
      last := (t_now, !done_);
      let p =
        {
          Engine.cases_done = !done_;
          cases_total = total;
          shards_done = !shard;
          shards_total;
          masked = !masked;
          sdc = !sdc;
          crash = !crash;
        }
      in
      publish_progress t job.Job.id ~heartbeat ~p ~rate
    done
  with
  | () ->
      let counts =
        {
          Job.cases_done = total;
          cases_total = total;
          masked = !masked;
          sdc = !sdc;
          crash = !crash;
        }
      in
      { job with Job.status = Job.Completed; counts; finished = Some (now ()) }
  | exception Stop_sampling Drain ->
      (* Sample jobs carry no checkpoint; a drained one simply restarts
         from scratch on the next daemon start. *)
      { job with Job.status = Job.Queued; counts = Job.zero_counts }
  | exception Stop_sampling User ->
      let counts =
        {
          Job.cases_done = !done_;
          cases_total = total;
          masked = !masked;
          sdc = !sdc;
          crash = !crash;
        }
      in
      { job with Job.status = Job.Cancelled; counts; finished = Some (now ()) }

let run_adaptive t (job : Job.info) cancel ~heartbeat ~aconfig ~seed =
  let spec = job.Job.spec in
  let golden = Golden.run (t.config.resolve spec.Job.bench) in
  let total = Models.total_cases spec.Job.model ~sites:(Golden.sites golden) in
  let key =
    Bstore.key_of ~bench:spec.Job.bench
      ~fingerprint:(Ftb_util.Fingerprint.of_floats golden.Golden.values)
      ~spec:spec.Job.model ~fuel:spec.Job.fuel ~config:aconfig ~seed
  in
  match Option.bind t.bstore (fun bs -> Bstore.find bs ~key) with
  | Some entry ->
      (* Warm start, strongest form: the store key hashes the complete
         campaign identity, so this entry *is* the converged result of
         the submitted campaign — serve it without drawing a single
         fresh sample. *)
      let counts =
        {
          Job.cases_done = entry.Bstore.samples;
          cases_total = total;
          masked = entry.Bstore.masked;
          sdc = entry.Bstore.sdc;
          crash = entry.Bstore.crash;
        }
      in
      {
        job with
        Job.status = Job.Completed;
        counts;
        cache = Job.Cache_full;
        finished = Some (now ());
      }
  | None -> (
      let checkpoint = Job.checkpoint_path ~state_dir:t.config.state_dir job.Job.id in
      let exec =
        Option.map
          (fun make ->
            make ~job_id:job.Job.id ~bench:spec.Job.bench ~fuel:spec.Job.fuel
              ~model:spec.Job.model ~golden)
          t.config.round_runner
      in
      (* Running tallies for progress frames and cancel-time counts; the
         completed job recounts from the result, which also covers rounds
         resumed from a checkpoint (they never fire on_round). *)
      let done_ = ref 0 and m = ref 0 and s = ref 0 and c = ref 0 in
      let last = ref (now (), 0) in
      let on_round ~round ~drawn ~masked ~sdc ~crash =
        done_ := !done_ + drawn;
        m := !m + masked;
        s := !s + sdc;
        c := !c + crash;
        let t_now = now () in
        let t_prev, prev_done = !last in
        let rate =
          if t_now > t_prev then float_of_int (!done_ - prev_done) /. (t_now -. t_prev)
          else 0.
        in
        last := (t_now, !done_);
        let p =
          {
            Engine.cases_done = !done_;
            cases_total = total;
            shards_done = round;
            shards_total = aconfig.Adaptive.max_rounds;
            masked = !m;
            sdc = !s;
            crash = !c;
          }
        in
        publish_progress t job.Job.id ~heartbeat ~p ~rate;
        let seq = with_lock t (fun () -> next_seq t job.Job.id) in
        stream_to_subs t job.Job.id ~seq
          (round_event ~id:job.Job.id ~seq ~round ~drawn ~masked ~sdc ~crash
             ~samples:!done_ ~total)
      in
      match
        Adaptive_engine.run ~config:aconfig ~spec:spec.Job.model ?fuel:spec.Job.fuel
          ~checkpoint ?exec ~on_round
          ~cancel:(fun () -> Atomic.get cancel <> None)
          ~name:spec.Job.bench ~seed golden
      with
      | result, _stats ->
          let masked, sdc, crash =
            Ftb_inject.Sample_run.count_outcomes result.Adaptive.samples
          in
          let counts =
            {
              Job.cases_done = Array.length result.Adaptive.samples;
              cases_total = total;
              masked;
              sdc;
              crash;
            }
          in
          (* Publish the converged boundary. Best-effort like the compose
             harvest: a full disk costs the next submission its warm
             start, never this job its result. *)
          (match t.bstore with
          | None -> ()
          | Some bs -> (
              try
                (* Adaptive rounds never leave the daemon, so the entry
                   keeps the default [local] provenance. *)
                Bstore.put bs
                  (Bstore.entry_of_result ~bench:spec.Job.bench ~spec:spec.Job.model
                     ~fuel:spec.Job.fuel ~config:aconfig ~seed ~created:(now ()) golden result)
              with _ -> ()));
          { job with Job.status = Job.Completed; counts; finished = Some (now ()) }
      | exception Adaptive_engine.Cancelled -> (
          let counts =
            {
              Job.cases_done = !done_;
              cases_total = total;
              masked = !m;
              sdc = !s;
              crash = !c;
            }
          in
          match Atomic.get cancel with
          | Some Drain ->
              (* The engine checkpointed (round granularity, pending draw
                 included) before raising: re-queue and resume
                 bit-identically on the next daemon start. *)
              { job with Job.status = Job.Queued; counts }
          | Some User | None ->
              { job with Job.status = Job.Cancelled; counts; finished = Some (now ()) }))

let run_job t (job : Job.info) cancel ~heartbeat =
  match
    match job.Job.spec.Job.mode with
    | Job.Exhaustive -> run_exhaustive t job cancel ~heartbeat
    | Job.Sample { fraction; seed } ->
        run_sample t job cancel ~heartbeat ~fraction ~seed
    | Job.Adaptive { config; seed } ->
        run_adaptive t job cancel ~heartbeat ~aconfig:config ~seed
  with
  | outcome -> outcome
  | exception e ->
      { job with Job.status = Job.Failed (Printexc.to_string e); finished = Some (now ()) }

(* Run the job under the stuck-job watchdog when one is configured.

   The runner executes in its own thread while the scheduler polls the
   heartbeat (OCaml's [Condition] has no timed wait). A job whose wave
   callbacks stop beating past the deadline — hung domain, livelocked
   shard — is declared [Stuck]: its last durable checkpoint is preserved
   for a later resubmission, its watchers get a final frame, and the
   queue moves on. The abandoned runner keeps its thread; it can no
   longer touch the job's record ([publish_progress] refuses terminal
   jobs) or its watchers (the subscriptions are finished), and a
   cooperative cancel is set in case it is merely slow and still polls.

   With [stuck_after = None] the job runs inline on the scheduler thread
   exactly as before. *)
let supervise_job t (job : Job.info) cancel =
  let heartbeat = Atomic.make (now ()) in
  match t.config.stuck_after with
  | None -> run_job t job cancel ~heartbeat
  | Some deadline ->
      let result = ref None in
      let finished = Atomic.make false in
      let runner =
        Thread.create
          (fun () ->
            (result := match run_job t job cancel ~heartbeat with r -> Some r);
            Atomic.set finished true)
          ()
      in
      let rec monitor () =
        if Atomic.get finished then begin
          Thread.join runner;
          match !result with
          | Some final -> final
          | None ->
              { job with Job.status = Job.Failed "runner thread died"; finished = Some (now ()) }
        end
        else if now () -. Atomic.get heartbeat > deadline then begin
          ignore (Atomic.compare_and_set cancel None (Some User) : bool);
          let counts =
            with_lock t (fun () ->
                match Hashtbl.find_opt t.jobs job.Job.id with
                | Some j -> j.Job.counts
                | None -> job.Job.counts)
          in
          { job with Job.status = Job.Stuck; counts; finished = Some (now ()) }
        end
        else begin
          Thread.delay 0.05;
          monitor ()
        end
      in
      monitor ()

let shutdown_fd fd = try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ()

let scheduler_loop t =
  let rec loop () =
    let next =
      with_lock t (fun () ->
          if t.stopping then None
          else
            match Job_queue.pop t.queue with
            | Some job ->
                let cancel = Atomic.make None in
                let job = { job with Job.status = Job.Running; started = Some (now ()) } in
                t.running <- Some { job_id = job.Job.id; cancel };
                set_job t job;
                Some (`Run (job, cancel))
            | None ->
                Condition.wait t.wake t.mutex;
                Some `Retry)
    in
    match next with
    | None -> ()
    | Some `Retry -> loop ()
    | Some (`Run (job, cancel)) ->
        let final = supervise_job t job cancel in
        let seq =
          with_lock t (fun () ->
              t.running <- None;
              set_job t final;
              next_seq t final.Job.id)
        in
        (* A drained job is not terminal: its watchers still get a final
           frame (status "queued") so they unblock before the daemon
           exits. *)
        finish_subs t final.Job.id (done_event ~seq final);
        loop ()
  in
  loop ();
  (* Drain: unblock watchers of jobs that never ran. *)
  let leftovers =
    with_lock t (fun () ->
        t.scheduler_done <- true;
        let subs = t.subs in
        t.subs <- [];
        List.iter (fun s -> s.sub_live <- false) subs;
        Condition.broadcast t.sub_done;
        List.filter_map
          (fun s ->
            Option.map
              (fun job -> (s, job, next_seq t s.sub_job))
              (Hashtbl.find_opt t.jobs s.sub_job))
          subs)
  in
  List.iter
    (fun (s, job, seq) ->
      Mutex.protect s.sub_write (fun () -> safe_write s.sub_fd (done_event ~seq job)))
    leftovers;
  (* The daemon has stopped. The extension releases what it holds (a
     fleet answers its parked lease requests), then every connection is
     shut down, so no client waits on a daemon that will not answer and
     no connection thread outlives the drain. A connection thread removes
     its descriptor under the lock before closing it, so none of these
     can have been reused. *)
  Option.iter (fun ext -> ignore (ext ~cmd:"shutdown" (Json.Obj []) : Json.t option)) t.config.extension;
  with_lock t (fun () -> List.iter shutdown_fd t.conns)

let start t =
  with_lock t (fun () ->
      if t.scheduler = None then t.scheduler <- Some (Thread.create scheduler_loop t))

let request_shutdown t =
  with_lock t (fun () ->
      if not t.stopping then begin
        t.stopping <- true;
        (match t.running with
        | Some r ->
            (* Don't override a pending user cancellation — it is the
               stronger request. *)
            ignore (Atomic.compare_and_set r.cancel None (Some Drain) : bool)
        | None -> ());
        Condition.signal t.wake
      end)

let join t =
  match with_lock t (fun () -> t.scheduler) with
  | Some thread -> Thread.join thread
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Request handling (connection threads)                               *)

let error_frame ?(extra = []) code message =
  Json.Obj
    [
      ("ok", Json.Bool false);
      ( "error",
        Json.Obj
          ([ ("code", Json.String code); ("message", Json.String message) ] @ extra) );
    ]

let ok_frame fields = Json.Obj (("ok", Json.Bool true) :: fields)

let req_id json =
  match Option.bind (Json.member "id" json) Json.to_int with
  | Some id -> Ok id
  | None -> Error (error_frame "bad_request" "missing integer field \"id\"")

(* Cold submission (caller holds the lock): allocate the id, enqueue,
   wake the scheduler. *)
let submit_cold t ~id ~spec ~idem =
  let job =
    {
      Job.id;
      spec;
      status = Job.Queued;
      counts = Job.zero_counts;
      submitted = now ();
      started = None;
      finished = None;
      idem;
      cache = Job.Cache_none;
    }
  in
  match Job_queue.add t.queue job with
  | Error (`Full capacity) ->
      error_frame "queue_full"
        (Printf.sprintf "queue is at capacity (%d queued jobs)" capacity)
        ~extra:[ ("capacity", Json.Int capacity) ]
  | Ok () ->
      t.next_id <- id + 1;
      (match idem with
      | Some key -> Hashtbl.replace t.idems key id
      | None -> ());
      set_job t job;
      Condition.signal t.wake;
      ok_frame [ ("id", Json.Int id) ]

let handle_submit t json =
  match
    match Json.member "spec" json with
    | None -> Error (error_frame "bad_request" "missing field \"spec\"")
    | Some spec -> (
        match Job.spec_of_json spec with
        | spec -> Ok spec
        | exception Job.Decode_error msg -> Error (error_frame "bad_request" msg))
  with
  | Error e -> e
  | Ok spec -> (
      let idem = Option.bind (Json.member "idem" json) Json.to_str in
      (* Resolve the benchmark before touching the queue so an unknown
         name is rejected up front, not at execution time. *)
      match t.config.resolve spec.Job.bench with
      | exception Invalid_argument msg -> error_frame "unknown_bench" msg
      | program ->
          (* Boundary probe before the lock: when the benchmark has an IR
             form and the exact same campaign (program content, model,
             fuel, tolerance) completed before, the whole boundary is in
             the store — one hash and one read, no golden run. The job is
             then recorded Completed at submit time without ever touching
             the queue, the pool or the worker fleet. *)
          let boundary =
            match (t.store, spec.Job.mode) with
            | Some store, Job.Exhaustive -> (
                match t.config.resolve_ir spec.Job.bench with
                | exception _ -> None
                | None -> None
                | Some ir ->
                    Compose.probe_boundary ~trust_unaudited:spec.Job.trust_cache
                      store ~ir ~model:spec.Job.model ~fuel:spec.Job.fuel)
            | _ -> None
          in
          with_lock t (fun () ->
              (* Idempotency first: a client retrying after a dropped ACK
                 must map to the job its first attempt created — even
                 while the daemon is draining, and without consuming
                 queue capacity. *)
              match Option.bind idem (Hashtbl.find_opt t.idems) with
              | Some id ->
                  ok_frame [ ("id", Json.Int id); ("deduped", Json.Bool true) ]
              | None ->
                  if t.stopping then error_frame "shutting_down" "daemon is draining"
                  else begin
                    let id = t.next_id in
                    match boundary with
                    | Some b -> (
                        match
                          Compose.checkpoint_of_boundary b
                            ~program:program.Ftb_trace.Program.name
                            ~shard_size:spec.Job.shard_size
                        with
                        | exception Invalid_argument _ ->
                            (* Unusable artifact (e.g. alien model
                               string): degrade to a normal enqueue. *)
                            submit_cold t ~id ~spec ~idem
                        | ckpt ->
                            let total = b.Ftb_compose.Profile.bsites * b.Ftb_compose.Profile.bwidth in
                            let counts =
                              {
                                Job.cases_done = total;
                                cases_total = total;
                                masked = b.Ftb_compose.Profile.masked;
                                sdc = b.Ftb_compose.Profile.sdc;
                                crash = b.Ftb_compose.Profile.crash;
                              }
                            in
                            let stamp = now () in
                            let job =
                              {
                                Job.id;
                                spec;
                                status = Job.Completed;
                                counts;
                                submitted = stamp;
                                started = Some stamp;
                                finished = Some stamp;
                                idem;
                                cache = Job.Cache_full;
                              }
                            in
                            t.next_id <- id + 1;
                            (match idem with
                            | Some key -> Hashtbl.replace t.idems key id
                            | None -> ());
                            (* set_job creates the job directory; the
                               synthetic complete checkpoint then lands
                               beside job.json so result fetch, watch and
                               crash-restart all see what a real run
                               would have written. *)
                            set_job t job;
                            Checkpoint.save
                              ~path:
                                (Job.checkpoint_path ~state_dir:t.config.state_dir id)
                              ckpt;
                            ok_frame
                              [
                                ("id", Json.Int id);
                                ("served_from_cache", Json.String "full");
                              ])
                    | None -> submit_cold t ~id ~spec ~idem
                  end))

let handle_status t json =
  match req_id json with
  | Error e -> e
  | Ok id -> (
      match with_lock t (fun () -> Hashtbl.find_opt t.jobs id) with
      | None -> error_frame "not_found" (Printf.sprintf "no job %d" id)
      | Some job -> ok_frame [ ("job", Job.info_to_json job) ])

let handle_list t =
  let jobs =
    with_lock t (fun () -> Hashtbl.fold (fun _ job acc -> job :: acc) t.jobs [])
    |> List.sort (fun (a : Job.info) b -> compare a.Job.id b.Job.id)
  in
  ok_frame [ ("jobs", Json.List (List.map Job.info_to_json jobs)) ]

let handle_cancel t json =
  match req_id json with
  | Error e -> e
  | Ok id ->
      let outcome =
        with_lock t (fun () ->
            match Hashtbl.find_opt t.jobs id with
            | None -> `Missing
            | Some job -> (
                match job.Job.status with
                | Job.Queued -> (
                    match Job_queue.remove t.queue id with
                    | Some _ ->
                        let job =
                          { job with Job.status = Job.Cancelled; finished = Some (now ()) }
                        in
                        set_job t job;
                        `Finished (job, next_seq t id)
                    | None ->
                        (* Queued status with no queue entry: only during a
                           drain, when the scheduler no longer runs it. *)
                        `Finished (job, next_seq t id))
                | Job.Running ->
                    (match t.running with
                    | Some r when r.job_id = id -> Atomic.set r.cancel (Some User)
                    | _ -> ());
                    `Pending job
                | _ -> `Terminal job))
      in
      (match outcome with
      | `Missing -> error_frame "not_found" (Printf.sprintf "no job %d" id)
      | `Finished (job, seq) ->
          (* Unblock any watchers of the queued job we just cancelled. *)
          finish_subs t id (done_event ~seq job);
          ok_frame [ ("job", Job.info_to_json job) ]
      | `Pending job -> ok_frame [ ("job", Job.info_to_json job) ]
      | `Terminal job ->
          error_frame "not_cancellable"
            (Printf.sprintf "job %d is already %s" id (Job.status_name job.Job.status)))

(* [watch] takes the snapshot and registers the subscription in one
   critical section, so every event after the snapshot reaches the
   watcher: one published earlier is already counted in the snapshot,
   and one published later has a greater seq. It writes its ok and
   snapshot frames holding the subscription's [sub_write], so they
   precede every streamed event. A job that is already terminal (or a
   daemon that is stopping) gets its final frame from here. *)
let handle_watch t fd json =
  match req_id json with
  | Error e ->
      Wire.write fd e;
      `Handled
  | Ok id -> (
      (* [after] is the last event seq the client already processed (0 on
         a first watch): the snapshot is suppressed when it would repeat
         state the client has seen, and later frames are filtered the
         same way — a reconnecting watcher resumes instead of replaying. *)
      let after =
        match Option.bind (Json.member "after" json) Json.to_int with
        | Some n -> n
        | None -> 0
      in
      let plan =
        with_lock t (fun () ->
            match Hashtbl.find_opt t.jobs id with
            | None -> `Missing
            | Some job ->
                (* An unknown seq (fresh daemon) gets a new one, so the
                   snapshot always outranks pre-restart frames. *)
                let snapshot_seq =
                  match current_seq t id with 0 -> next_seq t id | s -> s
                in
                (* A terminal job's seq counter also advanced when earlier
                   watchers were sent their final frames, so [snapshot_seq >
                   after] alone would re-deliver the snapshot to a resuming
                   client forever. A resumed watch ([after > 0]) of a
                   finished job gets just the final frame. *)
                let terminal = Job.is_terminal job.Job.status in
                let snapshot =
                  if snapshot_seq > after && (after = 0 || not terminal) then
                    Some (snapshot_event ~seq:snapshot_seq job)
                  else None
                in
                if terminal || t.stopping || t.scheduler_done then
                  `Send_done (job, snapshot, next_seq t id)
                else begin
                  let s =
                    {
                      sub_job = id;
                      sub_fd = fd;
                      sub_after = max after snapshot_seq;
                      sub_write = Mutex.create ();
                      sub_live = true;
                    }
                  in
                  Mutex.lock s.sub_write;
                  t.subs <- s :: t.subs;
                  `Wait (s, job, snapshot)
                end)
      in
      let prelude job snapshot =
        Wire.write fd (ok_frame [ ("job", Job.info_to_json job) ]);
        Option.iter (Wire.write fd) snapshot
      in
      match plan with
      | `Missing ->
          Wire.write fd (error_frame "not_found" (Printf.sprintf "no job %d" id));
          `Handled
      | `Send_done (job, snapshot, seq) ->
          prelude job snapshot;
          Wire.write fd (done_event ~seq job);
          `Handled
      | `Wait (s, job, snapshot) ->
          (match prelude job snapshot with
          | () -> Mutex.unlock s.sub_write
          | exception e ->
              Mutex.unlock s.sub_write;
              drop_sub t s;
              raise e);
          with_lock t (fun () ->
              while s.sub_live do
                Condition.wait t.sub_done t.mutex
              done);
          `Handled)

let boundary_entry_json (e : Bstore.entry) =
  Json.Obj
    [
      ("key", Json.String e.Bstore.key);
      ("bench", Json.String e.Bstore.bench);
      ("model", Json.String (Models.spec_to_string e.Bstore.spec));
      ("sites", Json.Int e.Bstore.sites);
      ("seed", Json.Int e.Bstore.seed);
      ("rounds", Json.Int e.Bstore.rounds);
      ("samples", Json.Int e.Bstore.samples);
      ("sample_fraction", Json.Float e.Bstore.sample_fraction);
      ("uncertainty", Json.Float e.Bstore.uncertainty);
      ("stop", Json.String (Adaptive.stop_reason_to_string e.Bstore.stop));
      ("prov", Json.String e.Bstore.prov);
      ("created", Json.Float e.Bstore.created);
    ]

(* Answer one (site, bit) prediction from the stored boundary alone —
   the store query never executes a kernel, so this verb is safe to
   serve from a connection thread while a campaign runs. *)
let handle_boundary_query t json =
  match t.bstore with
  | None ->
      error_frame "no_store" "boundary store disabled (daemon started without cache)"
  | Some bs -> (
      match
        ( Option.bind (Json.member "bench" json) Json.to_str,
          Option.bind (Json.member "site" json) Json.to_int,
          Option.bind (Json.member "bit" json) Json.to_int )
      with
      | None, _, _ -> error_frame "bad_request" "missing string field \"bench\""
      | _, None, _ | _, _, None ->
          error_frame "bad_request" "missing integer field \"site\" or \"bit\""
      | Some bench, Some site, Some bit -> (
          let spec =
            match Option.bind (Json.member "model" json) Json.to_str with
            | None -> Ok None
            | Some s -> (
                match Models.spec_of_string s with
                | Ok spec -> Ok (Some spec)
                | Error msg -> Error msg)
          in
          match spec with
          | Error msg -> error_frame "bad_request" msg
          | Ok spec -> (
              match Bstore.find_latest bs ~bench ?spec () with
              | None ->
                  error_frame "not_found"
                    (Printf.sprintf "no stored boundary for %S" bench)
              | Some entry -> (
                  match Bstore.query entry ~site ~bit with
                  | exception Invalid_argument msg -> error_frame "bad_request" msg
                  | p ->
                      ok_frame
                        [
                          ("site", Json.Int site);
                          ("bit", Json.Int bit);
                          ( "outcome",
                            Json.String
                              (match p.Bstore.outcome with
                              | `Masked -> "masked"
                              | `Sdc -> "sdc") );
                          ("threshold", Json.Float p.Bstore.threshold);
                          ("injected_error", Json.Float p.Bstore.injected_error);
                          ("support", Json.Int p.Bstore.site_support);
                          ("uncertainty", Json.Float p.Bstore.entry_uncertainty);
                          ("entry", boundary_entry_json entry);
                        ]))))

let handle_boundary_list t =
  match t.bstore with
  | None ->
      error_frame "no_store" "boundary store disabled (daemon started without cache)"
  | Some bs ->
      ok_frame
        [ ("entries", Json.List (List.map boundary_entry_json (Bstore.list bs))) ]

let handle_request t fd json =
  match Option.bind (Json.member "cmd" json) Json.to_str with
  | None -> Wire.write fd (error_frame "bad_request" "missing string field \"cmd\"")
  | Some "submit" -> Wire.write fd (handle_submit t json)
  | Some "status" -> Wire.write fd (handle_status t json)
  | Some "list" -> Wire.write fd (handle_list t)
  | Some "cancel" -> Wire.write fd (handle_cancel t json)
  | Some "boundary_query" -> Wire.write fd (handle_boundary_query t json)
  | Some "boundary_list" -> Wire.write fd (handle_boundary_list t)
  | Some "watch" -> ignore (handle_watch t fd json : [ `Handled ])
  | Some "shutdown" ->
      Wire.write fd (ok_frame []);
      request_shutdown t
  | Some cmd -> (
      (* Extension commands (the distributed worker protocol) are strict
         request/response: the handler returns one reply frame and never
         keeps the descriptor, so the single-writer discipline holds. *)
      match Option.bind t.config.extension (fun ext -> ext ~cmd json) with
      | Some reply -> Wire.write fd reply
      | None ->
          Wire.write fd
            (error_frame "bad_request" (Printf.sprintf "unknown command %S" cmd)))

let serve_connection t fd =
  with_lock t (fun () ->
      t.conns <- fd :: t.conns;
      if t.scheduler_done then shutdown_fd fd);
  Fun.protect
    ~finally:(fun () ->
      (* Make sure a dying connection — clean close, protocol violation,
         or I/O error alike — never leaves a live subscription behind
         pointing at a closed descriptor. The removed subs are also marked
         dead so no in-flight streamer writes to the recycled fd. *)
      with_lock t (fun () ->
          let mine, rest = List.partition (fun s -> s.sub_fd = fd) t.subs in
          List.iter (fun s -> s.sub_live <- false) mine;
          t.subs <- rest;
          t.conns <- List.filter (( <> ) fd) t.conns;
          Condition.broadcast t.sub_done);
      try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      try
        while true do
          let request = Wire.read fd in
          handle_request t fd request
        done
      with
      | Wire.Closed -> ()
      | Wire.Protocol_error msg -> (
          try Wire.write fd (error_frame "protocol" msg) with _ -> ())
      | Unix.Unix_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Listener                                                            *)

let bind_unix path =
  Ftb_inject.Persist.mkdir_p (Filename.dirname path);
  if Sys.file_exists path then Sys.remove path;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let bind_tcp host port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let run ?tcp ~socket t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigterm
    (Sys.Signal_handle (fun _ -> Atomic.set t.sigterm true));
  let listeners =
    bind_unix socket :: (match tcp with Some (host, port) -> [ bind_tcp host port ] | None -> [])
  in
  start t;
  let finished = ref false in
  while not !finished do
    if Atomic.get t.sigterm then request_shutdown t;
    (match Unix.select listeners [] [] 0.2 with
    | readable, _, _ ->
        List.iter
          (fun lfd ->
            match Unix.accept lfd with
            | client, _ ->
                ignore (Thread.create (fun () -> serve_connection t client) () : Thread.t)
            | exception Unix.Unix_error _ -> ())
          readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
    finished := with_lock t (fun () -> t.stopping && t.scheduler_done)
  done;
  join t;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  if Sys.file_exists socket then Sys.remove socket
