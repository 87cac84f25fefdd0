(** Campaign jobs: what a client submits, how the daemon tracks it, and
    how both survive a daemon restart.

    A job is a named benchmark plus a campaign mode. State lives in two
    files under the daemon state directory, one directory per job:

    {v
    <state>/jobs/<id>/job.json     descriptor + lifecycle status (atomic)
    <state>/jobs/<id>/checkpoint   Ftb_campaign.Checkpoint file (exhaustive)
    v}

    Lifecycle state machine (see DESIGN.md "Service layer"):

    {v
    queued -> running -> completed
       |         |----> failed
       |         |----> cancelled
       |         |----> stuck       (watchdog: no progress before deadline)
       |         '----> queued      (daemon drain / restart: resumes)
       '-> cancelled                (cancelled while still queued)
    v}

    [Completed], [Failed], [Cancelled] and [Stuck] are terminal. A job
    found [Running] on daemon startup was interrupted by a crash; it
    reloads as [Queued] and resumes from its checkpoint. A [Stuck] job's
    checkpoint is preserved, so it can be resubmitted and resume from the
    last durable wave.

    [job.json] is written inside the {!Ftb_inject.Persist.save_enveloped}
    integrity envelope; corrupt descriptors are quarantined on load
    instead of trusted or deleted. *)

type mode =
  | Exhaustive  (** every (site, bit) case, checkpointed and resumable *)
  | Sample of { fraction : float; seed : int }
      (** a uniform sample of the case space; cheap, so interrupted sample
          jobs restart from scratch instead of checkpointing *)
  | Adaptive of { config : Ftb_core.Adaptive.config; seed : int }
      (** §3.4 progressive rounds ({!Ftb_core.Adaptive}), checkpointed per
          round ({!Ftb_plan.Adaptive_engine}) and resumable bit-identically.
          JSON mode ["adaptive"] with fields [round_fraction],
          [stop_sdc_fraction], [max_rounds], [filter], [bias] (each
          defaulting to {!Ftb_core.Adaptive.default_config}) and a
          mandatory [seed]; decoding validates ranges via
          {!Ftb_core.Adaptive.check_config} *)

type spec = {
  bench : string;  (** benchmark name, resolved by the server *)
  mode : mode;
  shard_size : int;  (** cases per shard (progress/cancel granularity) *)
  fuel : int option;  (** per-case divergence watchdog *)
  model : Ftb_inject.Models.spec;
      (** the campaign's fault model; persisted in the descriptor (JSON
          field ["model"], {!Ftb_inject.Models.spec_to_string} encoding —
          absent in pre-model descriptors and then [Bit_flip_64]) and
          validated against the job's checkpoint on resume *)
  priority : int;  (** higher runs first; FIFO within a priority *)
  trust_cache : bool;
      (** opt into serving this job from profiles with {e unaudited}
          fleet provenance (JSON field ["trust_cache"], absent in
          pre-provenance descriptors and then [false]); trusted
          ([local] / fleet-audited) profiles are always eligible *)
}

val default_spec : bench:string -> spec
(** [mode = Exhaustive], [shard_size = 4096], [fuel = Some 10_000_000],
    [model = Models.default_spec], [priority = 0],
    [trust_cache = false]. *)

type status = Queued | Running | Completed | Failed of string | Cancelled | Stuck

type counts = {
  cases_done : int;
  cases_total : int;  (** 0 until the golden run has sized the space *)
  masked : int;
  sdc : int;
  crash : int;
}

type cache = Cache_none | Cache_partial | Cache_full
(** How much of the job the daemon served from the compositional profile
    cache ({!Ftb_compose}): [Cache_full] — the whole boundary came from
    the store and no pool or fleet work was scheduled; [Cache_partial] —
    a reduced campaign ran (only missed sections' cases executed);
    [Cache_none] — a from-scratch run. Serialized as the
    ["served_from_cache"] JSON field (["full"|"partial"|"none"]; absent in
    pre-cache descriptors and then [Cache_none]). *)

type info = {
  id : int;
  spec : spec;
  status : status;
  counts : counts;
  submitted : float;  (** Unix timestamps *)
  started : float option;
  finished : float option;
  idem : string option;
      (** client-supplied idempotency key: a resubmission carrying the same
          key maps to this job instead of double-running the campaign *)
  cache : cache;
}

val zero_counts : counts
val cache_name : cache -> string
(** ["none"], ["partial"], ["full"]. *)

val cache_of_name : string -> cache option
val status_name : status -> string
(** ["queued"], ["running"], ["completed"], ["failed"], ["cancelled"],
    ["stuck"]. *)

val is_terminal : status -> bool

(** {1 JSON codecs} *)

exception Decode_error of string

val spec_to_json : spec -> Json.t
val spec_of_json : Json.t -> spec
(** Raises {!Decode_error} on missing/ill-typed fields or out-of-range
    values (non-positive [shard_size] or [fuel], [fraction] outside
    (0, 1]). *)

val info_to_json : info -> Json.t
val info_of_json : Json.t -> info

(** {1 State-directory layout} *)

val dir : state_dir:string -> int -> string
val checkpoint_path : state_dir:string -> int -> string

val save : state_dir:string -> info -> unit
(** Atomic, integrity-enveloped write of [job.json] (via
    {!Ftb_inject.Persist.save_enveloped}), creating the job directory as
    needed. *)

val load_all : state_dir:string -> info list
(** Every verifiable, parseable [job.json] under [<state>/jobs], sorted by
    id. Corrupt descriptors (failed envelope check or decode) are moved to
    [quarantine/] and skipped; foreign entries are skipped — a
    half-created or corrupted job directory must not brick the daemon.
    A descriptor without the envelope header counts as corrupt. *)
