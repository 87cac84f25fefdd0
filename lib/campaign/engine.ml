module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Persist = Ftb_inject.Persist

type invalid_checkpoint = Fail | Restart

type progress = {
  cases_done : int;
  cases_total : int;
  shards_done : int;
  shards_total : int;
  masked : int;
  sdc : int;
  crash : int;
}

type shard_task = { shard : int; attempt : int; lo : int; hi : int }

type wave_runner = {
  wave_size : unit -> int;
  run_wave :
    shard_task array ->
    commit:(shard:int -> Bytes.t -> unit) ->
    run_local:(lo:int -> hi:int -> unit) ->
    (int * (unit, string) result) list;
}

type config = {
  shard_size : int;
  checkpoint_every : int;
  domains : int;
  fuel : int option;
  model : Ftb_inject.Models.spec;
  max_retries : int;
  resume : bool;
  on_invalid_checkpoint : invalid_checkpoint;
  progress : (progress -> unit) option;
  on_checkpoint : (shards_done:int -> shards_total:int -> unit) option;
  cancel : (unit -> bool) option;
  pool : Ftb_inject.Parallel.Pool.t option;
  runner : wave_runner option;
}

let default_config =
  {
    shard_size = 4096;
    checkpoint_every = 1;
    domains = 1;
    fuel = None;
    model = Ftb_inject.Models.default_spec;
    max_retries = 2;
    resume = true;
    on_invalid_checkpoint = Fail;
    progress = None;
    on_checkpoint = None;
    cancel = None;
    pool = None;
    runner = None;
  }

exception Shard_failed of { shard : int; attempts : int; message : string }
exception Cancelled

type report = {
  ground_truth : Ground_truth.t;
  total_shards : int;
  resumed_shards : int;
  executed_shards : int;
  retries : int;
  checkpoints_written : int;
  quarantined : string option;
}

let check_config c =
  if c.shard_size <= 0 then invalid_arg "Engine: shard_size must be positive";
  if c.checkpoint_every <= 0 then invalid_arg "Engine: checkpoint_every must be positive";
  if c.domains <= 0 then invalid_arg "Engine: domains must be positive";
  if c.max_retries < 0 then invalid_arg "Engine: max_retries must be non-negative";
  match c.fuel with
  | Some n when n <= 0 -> invalid_arg "Engine: fuel must be positive"
  | _ -> ()

(* Returns the resumed (or fresh) state plus the quarantine destination
   when an invalid checkpoint was found under [Restart]: the corrupt file
   is moved aside as evidence — never resumed from, never overwritten in
   place — and the campaign rebuilds from scratch. *)
let initial_state ~config ~checkpoint golden =
  match checkpoint with
  | Some path when config.resume && Sys.file_exists path -> (
      match
        Checkpoint.load ~model:config.model ~path ~shard_size:config.shard_size golden
      with
      | state -> (state, None)
      | exception Persist.Format_error _ when config.on_invalid_checkpoint = Restart ->
          let quarantined = Persist.quarantine ~path in
          (Checkpoint.create ~model:config.model golden ~shard_size:config.shard_size,
           quarantined))
  | Some _ | None ->
      (Checkpoint.create ~model:config.model golden ~shard_size:config.shard_size, None)

let run ?(config = default_config) ?checkpoint ?case_runner golden =
  check_config config;
  let state, quarantined = initial_state ~config ~checkpoint golden in
  let total = Ftb_inject.Models.total_cases config.model ~sites:(Golden.sites golden) in
  let total_shards = Checkpoint.shards state in
  let resumed_shards = Checkpoint.completed_count state in
  let outcomes = state.Checkpoint.outcomes in
  let shard_size = state.Checkpoint.shard_size in
  let fill_range =
    match case_runner with
    | Some f ->
        fun ~lo ~hi ->
          for case = lo to hi - 1 do
            Bytes.set outcomes case (f golden case)
          done
    | None ->
        (* Default shard runner: the batched executor — whole sites inside
           the shard run their shared prefix once and replay only the
           suffix per case; non-resumable programs fall back to per-case
           full re-execution inside [range_into_model]. *)
        fun ~lo ~hi ->
          Ftb_inject.Executor.range_into_model ?fuel:config.fuel config.model golden ~lo
            ~hi outcomes ~off:lo
  in
  (* One shard is the unit of containment at the supervisor level: the
     per-case runner already contains kernel exceptions, so a shard only
     fails on harness trouble (or an injected test failure) — and then it
     is retried rather than sinking the campaign. *)
  let run_shard index =
    try
      let lo, hi = Shard.bounds ~total ~shard_size index in
      fill_range ~lo ~hi;
      Ok ()
    with e -> Error (Printexc.to_string e)
  in
  let executed = ref 0 and retries = ref 0 and checkpoints_written = ref 0 in
  let since_checkpoint = ref 0 in
  (* Outcome tallies over completed shards only, maintained incrementally:
     seeded from any resumed shards, then bumped as each shard finishes.
     They feed the progress events and never touch the outcome bytes. *)
  let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
  let count_range ~lo ~hi =
    for case = lo to hi - 1 do
      match Ground_truth.outcome_of_byte (Bytes.get outcomes case) with
      | Ftb_trace.Runner.Masked -> incr masked
      | Ftb_trace.Runner.Sdc -> incr sdc
      | Ftb_trace.Runner.Crash -> incr crash
    done
  in
  Array.iteri
    (fun index completed ->
      if completed then begin
        let lo, hi = Shard.bounds ~total ~shard_size index in
        count_range ~lo ~hi
      end)
    state.Checkpoint.completed;
  let save_checkpoint () =
    match checkpoint with
    | None -> ()
    | Some path ->
        Checkpoint.save ~path state;
        incr checkpoints_written;
        since_checkpoint := 0;
        (match config.on_checkpoint with
        | Some f ->
            f ~shards_done:(Checkpoint.completed_count state) ~shards_total:total_shards
        | None -> ())
  in
  let report_progress () =
    match config.progress with
    | Some f ->
        f
          {
            cases_done = Checkpoint.completed_cases state;
            cases_total = total;
            shards_done = Checkpoint.completed_count state;
            shards_total = total_shards;
            masked = !masked;
            sdc = !sdc;
            crash = !crash;
          }
    | None -> ()
  in
  (* Remote runners hand back a shard's outcome bytes as one blob; commit
     is the only way those bytes enter the campaign, and it refuses blobs
     that do not exactly cover the shard's [lo, hi) range. *)
  let commit ~shard bytes =
    let lo, hi = Shard.bounds ~total ~shard_size shard in
    if Bytes.length bytes <> hi - lo then
      invalid_arg
        (Printf.sprintf "Engine: commit for shard %d expects %d bytes (got %d)"
           shard (hi - lo) (Bytes.length bytes));
    Bytes.blit bytes 0 outcomes lo (hi - lo)
  in
  (* Default wave runner: shards of the wave are claimed off the
     persistent domain pool (spawned once per process, reused across waves
     and campaigns); each shard writes a disjoint byte range of
     [outcomes], and [run_shard] never raises, so slots of [results] are
     filled race-free. *)
  let local_runner =
    {
      wave_size = (fun () -> config.domains);
      run_wave =
        (fun tasks ~commit:_ ~run_local:_ ->
          match tasks with
          | [| t |] -> [ (t.shard, run_shard t.shard) ]
          | _ ->
              let pool =
                match config.pool with
                | Some pool -> pool
                | None -> Ftb_inject.Parallel.Pool.global ~domains:config.domains ()
              in
              let results = Array.make (Array.length tasks) None in
              Ftb_inject.Parallel.Pool.run pool ~participants:config.domains
                ~chunk:1 ~total:(Array.length tasks) (fun lo hi ->
                  for i = lo to hi - 1 do
                    results.(i) <- Some (tasks.(i).shard, run_shard tasks.(i).shard)
                  done);
              Array.to_list results |> List.filter_map Fun.id);
    }
  in
  let runner = Option.value config.runner ~default:local_runner in
  let pending = Queue.create () in
  Array.iteri
    (fun index completed -> if not completed then Queue.add (index, 1) pending)
    state.Checkpoint.completed;
  while not (Queue.is_empty pending) do
    (* Cooperative cancellation boundary: between waves the outcome bytes
       are quiescent, so a checkpoint here captures exactly the completed
       shards and the campaign resumes with nothing lost. *)
    (match config.cancel with
    | Some should_cancel when should_cancel () ->
        save_checkpoint ();
        raise Cancelled
    | _ -> ());
    (* Take one wave of shards (the runner chooses how many it can keep
       busy) and hand it off; the runner reports per-shard results and has
       either written the outcome bytes in place ([run_local]) or
       committed a returned blob ([commit]) for every [Ok] shard. *)
    let limit = max 1 (runner.wave_size ()) in
    let wave = ref [] in
    while List.length !wave < limit && not (Queue.is_empty pending) do
      wave := Queue.pop pending :: !wave
    done;
    let tasks =
      List.rev !wave
      |> List.map (fun (index, attempt) ->
             let lo, hi = Shard.bounds ~total ~shard_size index in
             { shard = index; attempt; lo; hi })
      |> Array.of_list
    in
    let results = runner.run_wave tasks ~commit ~run_local:fill_range in
    Array.iter
      (fun task ->
        let result =
          match List.assoc_opt task.shard results with
          | Some r -> r
          | None -> Error "shard runner returned no result"
        in
        match result with
        | Ok () ->
            state.Checkpoint.completed.(task.shard) <- true;
            count_range ~lo:task.lo ~hi:task.hi;
            incr executed;
            incr since_checkpoint
        | Error message ->
            if task.attempt > config.max_retries then begin
              (* Persist what we have so the failed campaign is resumable
                 after the underlying problem is fixed. *)
              save_checkpoint ();
              raise
                (Shard_failed
                   { shard = task.shard; attempts = task.attempt; message })
            end
            else begin
              incr retries;
              Queue.add (task.shard, task.attempt + 1) pending
            end)
      tasks;
    (* Checkpoint before reporting, so a progress event always advertises
       progress that is already durable on disk — a consumer killed right
       after seeing an event (the campaign daemon's watchers) can rely on
       resuming from at least that point. *)
    if !since_checkpoint >= config.checkpoint_every then save_checkpoint ();
    report_progress ()
  done;
  if !since_checkpoint > 0 || (checkpoint <> None && !checkpoints_written = 0) then
    save_checkpoint ();
  {
    ground_truth = Checkpoint.ground_truth golden state;
    total_shards;
    resumed_shards;
    executed_shards = !executed;
    retries = !retries;
    checkpoints_written = !checkpoints_written;
    quarantined;
  }
