(** Client library for the campaign daemon.

    Thin, synchronous wrapper over the wire protocol: every call sends one
    request frame and decodes the response. {!watch} additionally consumes
    the event stream, invoking a callback per event — the blocking and the
    event-driven API in one entry point.

    Typed service failures (unknown job, full queue, draining daemon…)
    come back as [Error {code; message}] with the server's error code.
    Transport failures (daemon gone, protocol violation) raise
    [Wire.Closed] / [Wire.Protocol_error] / [Unix.Unix_error] instead —
    a caller that can retry wants to distinguish "the daemon said no"
    from "the daemon is unreachable".

    A client is not thread-safe; use one per thread. *)

type t

type error = { code : string; message : string }

type event =
  | Progress of {
      seq : int;
          (** per-job, strictly increasing event sequence number; [0]
              when the daemon predates sequence numbers *)
      cases_done : int;
      cases_total : int;
      shards_done : int;
      shards_total : int;
      masked : int;
      sdc : int;
      crash : int;
      cases_per_sec : float;
    }
      (** one frame per completed shard wave, plus an initial snapshot;
          waves grow while they run fast, so a fast job sends few *)
  | Round of {
      seq : int;
      round : int;  (** 1-based §3.4 round number *)
      drawn : int;  (** cases drawn (and executed) this round *)
      masked : int;  (** this round's outcome tallies *)
      sdc : int;
      crash : int;
      samples_total : int;  (** cumulative samples across the campaign *)
      cases_total : int;  (** dense case-space size, for fractions *)
    }
      (** one frame per adaptive round — watchers of an adaptive job see
          §3.4 convergence live, interleaved with {!Progress} frames *)
  | Worker_quarantined of { seq : int; worker : string; disputes : int }
      (** a fleet audit convicted [worker] of [disputes] silently corrupt
          shard results while this job was running; its commits have been
          re-executed and overwritten, so the job's bytes stay correct.
          Event kinds this library does not know are skipped, not
          errors — a newer daemon can stream new kinds safely. *)

val connect : socket:string -> t
(** Connect to a daemon's Unix-domain socket. *)

val connect_tcp : host:string -> port:int -> t

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected descriptor (tests use a socketpair). *)

val close : t -> unit

val submit : ?idem:string -> t -> Job.spec -> (int, error) result
(** Returns the assigned job id. [idem] is an idempotency key: a
    resubmission carrying the same key returns the id of the job the
    first submission created instead of enqueuing a duplicate — the
    foundation of safe retry after a dropped ACK. [Error] codes include
    [queue_full] (backpressure), [unknown_bench], [bad_request],
    [shutting_down]. *)

val status : t -> int -> (Job.info, error) result
val list : t -> (Job.info list, error) result

val cancel : t -> int -> (Job.info, error) result
(** Cancel a queued job (immediate) or the running job (takes effect at
    the next shard-wave boundary). *)

val shutdown : t -> (unit, error) result
(** Ask the daemon to drain and exit. *)

val watch :
  ?on_event:(event -> unit) -> ?after:int -> t -> int -> (Job.info, error) result
(** Subscribe to a job's progress stream and block until the daemon sends
    the final frame; returns the job's descriptor at that point. The
    final status is [Completed] / [Failed] / [Cancelled] / [Stuck] — or
    [Queued] when the daemon drained and suspended the job. [after] is
    the last event seq this client already processed (reconnect resume);
    the server suppresses frames at or below it. On a first watch
    ([after] omitted) at least one {!Progress} event is always delivered
    (the subscription snapshot); a resumed watch ([after > 0]) of an
    already-finished job skips the snapshot and goes straight to the
    final frame. *)

(** {1 Retrying clients}

    Self-healing variants for unattended use: each attempt opens a fresh
    connection, transport failures ([Wire.Closed], [Wire.Protocol_error],
    [Unix.Unix_error]) back off with decorrelated jitter
    ({!Ftb_util.Backoff}, tuned by the [FTB_RETRY_*] environment knobs)
    and retry, while typed service errors — answers from a live daemon —
    return immediately. Once attempts are exhausted the last transport
    exception is raised. *)

type endpoint

val unix_endpoint : socket:string -> endpoint
val tcp_endpoint : host:string -> port:int -> endpoint
val connect_endpoint : endpoint -> t
(** One non-retrying connection to the endpoint. *)

val with_retry :
  ?policy:Ftb_util.Backoff.policy ->
  ?rng:Ftb_util.Rng.t ->
  ?sleep:(float -> unit) ->
  endpoint ->
  (t -> 'a) ->
  ('a, exn) result
(** [with_retry endpoint f] runs [f] on a fresh connection (closed after
    the attempt, success or failure), retrying transport failures under
    the backoff policy (default {!Ftb_util.Backoff.from_env}). Only safe
    for idempotent [f]. [sleep] defaults to [Unix.sleepf]; tests inject a
    recorder. *)

val submit_retry :
  ?policy:Ftb_util.Backoff.policy ->
  ?rng:Ftb_util.Rng.t ->
  ?sleep:(float -> unit) ->
  endpoint ->
  idem:string ->
  Job.spec ->
  (int, error) result
(** Retrying {!submit}. The mandatory idempotency key is what makes the
    retry safe: an attempt whose ACK was lost may have created the job,
    and the next attempt dedupes to it server-side. *)

val watch_retry :
  ?policy:Ftb_util.Backoff.policy ->
  ?rng:Ftb_util.Rng.t ->
  ?sleep:(float -> unit) ->
  ?on_event:(event -> unit) ->
  endpoint ->
  int ->
  (Job.info, error) result
(** Retrying {!watch}: on a transport failure mid-stream it reconnects
    and resumes from the last event seq it delivered, deduplicating
    client-side as well — [on_event] sees each wave at most once, in
    order, across any number of reconnects. *)
