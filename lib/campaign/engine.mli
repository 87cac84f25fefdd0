(** Supervised, resumable fault-injection campaigns.

    The engine drives an exhaustive campaign (every site x bit case) as a
    sequence of {!Shard}s with three robustness layers on top of the raw
    {!Ftb_inject.Ground_truth} loop:

    - {b checkpoint/resume} — outcome bytes and the shard manifest are
      written atomically at the end of a wave, once [checkpoint_every]
      shards have completed since the last write; a
      killed campaign resumes from its last checkpoint, validates it
      against the golden run and re-executes only the missing shards.
      The resumed result is bit-identical to an uninterrupted run.
    - {b crash isolation} — each case runs contained
      ({!Ftb_inject.Ground_truth.case_byte_model}); exceptions escaping a whole
      shard (worker-domain trouble) fail only that shard, which the
      supervisor retries up to [max_retries] times before raising
      {!Shard_failed} — after persisting a final checkpoint so the
      campaign stays resumable.
    - {b divergence watchdog} — [fuel] bounds the dynamic instruction
      count per case; faults that prevent convergence terminate as
      [Crash]/[Fuel_exhausted] outcomes instead of hanging the campaign.

    Serial ([domains = 1]) and parallel ([domains > 1]) execution produce
    bit-identical outcome bytes: every path runs the same per-case
    function and workers write disjoint shards. *)

type invalid_checkpoint =
  | Fail  (** propagate {!Ftb_inject.Persist.Format_error} to the caller *)
  | Restart
      (** quarantine the bad checkpoint ({!Ftb_inject.Persist.quarantine})
          and start fresh; the evidence path is reported in
          [report.quarantined] *)

type progress = {
  cases_done : int;  (** cases inside completed shards *)
  cases_total : int;
  shards_done : int;
  shards_total : int;
  masked : int;  (** Masked outcomes over completed shards *)
  sdc : int;  (** SDC outcomes over completed shards *)
  crash : int;  (** Crash outcomes (any taxonomy reason) over completed shards *)
}
(** Snapshot passed to the progress callback after every wave (see
    {!wave_runner} for how waves are sized). Counts
    cover completed shards only (including shards resumed from a
    checkpoint), so [masked + sdc + crash = cases_done]. *)

type shard_task = {
  shard : int;  (** shard index *)
  attempt : int;  (** 1 on the first try, bumped per retry *)
  lo : int;  (** first case of the shard (inclusive) *)
  hi : int;  (** one past the last case *)
}
(** One unit of work handed to a {!wave_runner}. *)

type wave_runner = {
  wave_size : unit -> int;
      (** how many executors the runner keeps busy: the size of the first
          wave and the floor of every later one. Queried before each wave
          so a distributed runner can track its current worker capacity.
          The engine doubles each later wave while the previous one took
          under 0.25 s, halves it when the previous took over 0.5 s, and
          never goes below [wave_size ()]: a fast job pays few barriers
          (checkpoint, progress event, fleet audit), and a slow one still
          reaches a wave boundary about every quarter second. *)
  run_wave :
    shard_task array ->
    commit:(shard:int -> Bytes.t -> unit) ->
    run_local:(lo:int -> hi:int -> unit) ->
    (int * (unit, string) result) list;
      (** execute one wave and return per-shard results keyed by shard
          index. For every [Ok] shard the runner must have produced the
          outcome bytes first — either by calling [run_local ~lo ~hi]
          (the engine's own batched executor, writing in place) or by
          [commit ~shard bytes] with the full [hi - lo] byte blob (a
          remote worker's result; [commit] raises [Invalid_argument] on a
          size mismatch and is the only write path for foreign bytes). A
          shard with no reported result is treated as failed and retried. *)
}
(** Pluggable shard execution. The engine owns supervision — the pending
    queue, retries, checkpoints, cancellation, progress — and delegates
    only "run these shards" to the wave runner, so the local pool and a
    distributed worker fleet ({!Ftb_dist.Fleet}) share one code path.
    Outcome bytes are a pure function of the golden trace, so any runner
    that fills each shard's range exactly once yields bit-identical
    results. *)

type config = {
  shard_size : int;  (** cases per shard (checkpoint/retry granularity) *)
  checkpoint_every : int;
      (** a checkpoint is written at the end of each wave by which at least
          this many shards have completed since the last write; with the
          default of 1 that is every wave *)
  domains : int;
      (** domains of the built-in runner; 1 = serial. The domains
          claim a wave's shards one at a time; a shard that raises fails
          alone and is retried. *)
  fuel : int option;  (** per-case dynamic-instruction budget *)
  model : Ftb_inject.Models.spec;
      (** the campaign's fault model. Sizes the dense case space
          ([sites * spec_width]), selects the corruption each case
          applies, and is persisted in (and validated against)
          checkpoints. The default is the paper's [Bit_flip_64], which
          runs the exact pre-model code paths. *)
  max_retries : int;  (** retries per shard before {!Shard_failed} *)
  resume : bool;  (** load an existing checkpoint file if present *)
  on_invalid_checkpoint : invalid_checkpoint;
  progress : (progress -> unit) option;
      (** called after every wave, after that wave's checkpoint write (when
          one is due) — reported progress is already durable *)
  on_checkpoint : (shards_done:int -> shards_total:int -> unit) option;
      (** called after each successful checkpoint write *)
  cancel : (unit -> bool) option;
      (** polled between shard waves (about every quarter second at most,
          see {!wave_runner}); returning [true] checkpoints the
          campaign (when a checkpoint path was given) and raises
          {!Cancelled}. The campaign service uses this for cooperative job
          cancellation and graceful daemon drain. *)
  pool : Ftb_inject.Parallel.Pool.t option;
      (** run parallel waves on this pool instead of
          {!Ftb_inject.Parallel.Pool.global} — lets a long-lived host (the
          campaign daemon) share one warm pool handle across many
          campaigns. Ignored when [domains = 1]. *)
  runner : wave_runner option;
      (** execute waves through this runner instead of the built-in
          local-pool runner. [None] (the default) runs shards on
          [pool]/[domains] exactly as before. *)
}

val default_config : config
(** [shard_size = 4096], [checkpoint_every = 1], [domains = 1],
    [fuel = None], [model = Models.default_spec], [max_retries = 2],
    [resume = true], [on_invalid_checkpoint = Fail], no callbacks, no
    cancellation, global pool, built-in local runner. *)

exception
  Shard_failed of { shard : int; attempts : int; message : string }
(** A shard kept failing past its retry budget. The engine writes a final
    checkpoint before raising, so the campaign can resume once the cause
    is fixed. *)

exception Cancelled
(** The [cancel] callback returned [true] between two shard waves. A final
    checkpoint has already been written (when a checkpoint path was
    given), so the campaign resumes exactly where it stopped. *)

type report = {
  ground_truth : Ftb_inject.Ground_truth.t;  (** the completed campaign *)
  total_shards : int;
  resumed_shards : int;  (** shards satisfied by the loaded checkpoint *)
  executed_shards : int;  (** shards actually run in this invocation *)
  retries : int;  (** failed shard attempts that were re-queued *)
  checkpoints_written : int;
  quarantined : string option;
      (** where an invalid checkpoint was moved when
          [on_invalid_checkpoint = Restart] fired; [None] on a clean run *)
}

val run :
  ?config:config ->
  ?checkpoint:string ->
  ?case_runner:(Ftb_trace.Golden.t -> int -> char) ->
  Ftb_trace.Golden.t ->
  report
(** Run (or resume) an exhaustive campaign for [golden].

    [checkpoint] names the checkpoint file; without it the campaign runs
    unsupervised-but-contained, with no persistence. [case_runner]
    overrides the per-case worker (tests use this to inject shard
    failures); the default is
    [Ground_truth.case_byte_model ?fuel:config.fuel config.model].

    Raises [Invalid_argument] on nonsensical config values,
    {!Ftb_inject.Persist.Format_error} when a checkpoint is invalid and
    [on_invalid_checkpoint = Fail], and {!Shard_failed} when a shard
    exhausts its retry budget. *)
