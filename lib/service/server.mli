(** The campaign daemon: a single-host service that queues, schedules and
    streams fault-injection campaigns.

    One process owns a state directory and a warm {!Ftb_inject.Parallel.Pool}
    handle; clients talk to it over a Unix-domain socket (opt-in TCP) with
    the length-prefixed JSON frames of {!Wire}. Jobs are executed one at a
    time, in priority order, by a dedicated scheduler thread running
    {!Ftb_campaign.Engine} — so kernel compilation, pool spawn and golden
    traces are paid once per daemon, not once per analysis.

    {2 Protocol}

    Every request is one frame carrying an object with a ["cmd"] field:

    {v
    {"cmd":"submit","spec":{...}}   -> {"ok":true,"id":N}
    {"cmd":"submit","spec":{...},"idem":"key"}
                                    -> {"ok":true,"id":N[,"deduped":true]}
    {"cmd":"status","id":N}         -> {"ok":true,"job":{...}}
    {"cmd":"list"}                  -> {"ok":true,"jobs":[...]}
    {"cmd":"cancel","id":N}         -> {"ok":true,"job":{...}}
    {"cmd":"watch","id":N[,"after":S]}
                                    -> {"ok":true,"job":{...}} + event stream
    {"cmd":"boundary_query","bench":B,"site":I,"bit":J[,"model":M]}
                                    -> {"ok":true,"outcome":...,"threshold":...,
                                        "injected_error":...,"support":...,
                                        "uncertainty":...,"entry":{...}}
    {"cmd":"boundary_list"}         -> {"ok":true,"entries":[...]}
    {"cmd":"shutdown"}              -> {"ok":true}
    v}

    Failures are [{"ok":false,"error":{"code":...,"message":...}}] with
    codes [bad_request], [unknown_bench], [not_found], [queue_full]
    (backpressure: the bounded queue rejects, it never blocks),
    [not_cancellable], [no_store] (boundary verbs on a cache-less daemon)
    and [shutting_down].

    [boundary_query] predicts one (site, bit) case from the newest stored
    adaptive boundary of a kernel ({!Ftb_plan.Boundary_store.query}) —
    zero kernel execution, served from a connection thread even while a
    campaign runs.

    [submit] is idempotent when the client supplies an ["idem"] key: a
    retried submission whose first ACK was lost maps to the job it
    already created (["deduped":true]) instead of double-running a
    campaign. Keys persist in [job.json], so deduplication survives a
    daemon restart.

    After a successful [watch] the server pushes one immediate
    ["progress"] snapshot (so every watcher observes at least one event),
    then one ["progress"] frame per completed shard wave (a job's first
    wave holds one shard per executor, and each later one doubles while
    the previous took under 0.25 s, so a fast job streams a handful of
    frames and a slow one about two a second) — adaptive jobs
    additionally stream one ["round"] frame per §3.4 round (fields
    ["round"], ["drawn"], ["masked"], ["sdc"], ["crash"],
    ["samples_total"], ["cases_total"]) so watchers follow convergence
    live (interleaved with ["worker_quarantined"] frames when a fleet
    audit convicts a worker mid-job — clients must skip event types they
    do not know),
    then a final ["done"] frame carrying the job descriptor, after which
    the connection reverts to request/response. Every event frame carries a
    per-job, strictly increasing ["seq"], and a watcher receives every
    event published after its snapshot (the snapshot and the
    subscription are taken together); a reconnecting watcher passes
    the last seq it processed as ["after"] and the server suppresses
    frames it has already seen (including the snapshot, unless the
    daemon restarted and the job's seq history is gone).

    {2 Durability}

    Submitted jobs and their campaign checkpoints live under the state
    directory ({!Job}); a killed daemon restarted on the same directory
    re-queues every non-terminal job and resumes in-flight exhaustive
    campaigns from their last checkpoint — converging to outcome bytes
    bit-identical to an uninterrupted run. On SIGTERM (or a [shutdown]
    request) the daemon drains gracefully: it stops accepting work,
    suspends the running job at the next shard-wave boundary (checkpoint
    written, status back to [queued]), notifies watchers and exits. *)

type config = {
  state_dir : string;  (** job descriptors + checkpoints live here *)
  capacity : int;  (** queue bound (running job excluded) *)
  domains : int;  (** worker domains for campaign execution *)
  checkpoint_every : int;
      (** an exhaustive job writes its checkpoint at the end of each shard
          wave by which at least this many shards have completed since the
          last write ({!Ftb_campaign.Engine.config.checkpoint_every}) *)
  stuck_after : float option;
      (** stuck-job watchdog deadline, seconds: a running job whose
          progress callbacks stop beating for this long is declared
          {!Job.Stuck} (checkpoint preserved, queue moves on). An
          exhaustive job beats once per shard wave, and waves stop
          growing once one takes 0.25 s (halving past 0.5 s), so a deadline
          of a second or more never trips a healthy job. [None] disables
          the watchdog and runs jobs inline on the scheduler thread. *)
  resolve : string -> Ftb_trace.Program.t;
      (** benchmark lookup; [Invalid_argument] rejects the submission.
          The CLI passes {!Ftb_kernels.Suite.find}; tests inject tiny
          programs. *)
  resolve_ir : string -> Ftb_ir.Ir.t option;
      (** IR form of a benchmark, when it has one — the compositional
          cache only works on IR benchmarks (content keys hash the IR).
          [None] (or an exception) disables the cache for that name. *)
  cache : bool;
      (** enable the compositional profile cache under
          [<state_dir>/cache]: submit-time boundary probes serve
          byte-identical exhaustive resubmissions as [Completed] without
          queueing (descriptor field ["served_from_cache":"full"]), and
          section-profile hits seed a reduced campaign that executes only
          missed sections' cases (["partial"]). Every completed IR
          campaign is harvested back into the store. Default [true]. *)
  extension : (cmd:string -> Json.t -> Json.t option) option;
      (** strict request/response protocol extension, consulted for any
          ["cmd"] the core protocol does not know. Returning [Some reply]
          sends that frame; [None] falls through to the usual
          [bad_request] error. The handler must not retain the
          connection, though it may hold the request until it has a
          reply. When the daemon stops, the server calls it once with
          [~cmd:"shutdown"] — a command no client can route to it, since
          the core protocol answers [shutdown] itself — so it can answer
          whatever requests it holds. {!Ftb_dist.Fleet.extension} plugs
          the worker protocol (register / lease / heartbeat / result /
          detach) in here. *)
  wave_runner :
    (job_id:int ->
    bench:string ->
    fuel:int option ->
    model:Ftb_inject.Models.spec ->
    golden:Ftb_trace.Golden.t ->
    Ftb_campaign.Engine.wave_runner option)
    option;
      (** pluggable shard execution for exhaustive jobs, queried once per
          job start with the job's fault model. [None] (or a factory
          returning [None] — e.g. no fleet workers attached) runs the
          engine's built-in local-pool path.
          {!Ftb_dist.Fleet.wave_runner} returns a runner that leases
          the job's shards to attached worker processes. *)
  round_runner :
    (job_id:int ->
    bench:string ->
    fuel:int option ->
    model:Ftb_inject.Models.spec ->
    golden:Ftb_trace.Golden.t ->
    Ftb_plan.Adaptive_engine.exec)
    option;
      (** a seam for in-process harnesses: an
          {!Ftb_plan.Adaptive_engine.exec} that runs each adaptive
          round's drawn case list, queried once per job start (a timing
          shim sets it). It must return the samples of
          {!Ftb_inject.Sample_run.run_case_model}, aligned with the draw.
          [None], what the CLI daemon uses, runs rounds on the engine's
          own serial executor on the scheduler thread. Adaptive rounds
          never go to fleet workers, so the boundary-store entry of an
          adaptive job always has [local] provenance. *)
  provenance : (job_id:int -> (string list * bool) option) option;
      (** who computed a just-finished job's bytes, queried once at
          harvest time: [Some (workers, audited)] stamps every profile
          harvested from the job with fleet provenance
          ({!Ftb_compose.Profile.prov_fleet} — [workers] the sorted
          worker names whose commits survived, [audited] whether every
          surviving remote shard passed audit); [None] (or no hook)
          means the local executor computed everything and profiles keep
          [local] provenance. The CLI wires
          {!Ftb_dist.Fleet.job_provenance} in here. *)
}

val default_config : state_dir:string -> config
(** [capacity = 64], [domains = 1], [checkpoint_every = 1],
    [stuck_after = None], [resolve = Ftb_kernels.Suite.find],
    [resolve_ir = Ftb_kernels.Suite.find_ir], [cache = true], no protocol
    extension, built-in shard execution, no provenance hook. *)

val cache_dir : state_dir:string -> string
(** Where the profile cache of a state directory lives
    ([<state_dir>/cache]) — the [ftb cache] CLI opens the store there
    directly. *)

val boundaries_dir : state_dir:string -> string
(** Where the adaptive boundary store of a state directory lives
    ([<state_dir>/boundaries]) — the [ftb boundary] CLI opens the store
    there directly for offline query / list / export / gc. *)

type t

val create : config -> t
(** Load the state directory (creating it as needed), re-queue every
    non-terminal job up to the queue capacity — overflow jobs become
    [Failed] with an eviction reason instead of resurrecting an unbounded
    queue — and spawn the domain pool when [domains > 1]. Corrupt job
    descriptors are quarantined and skipped ({!Job.load_all}). The
    scheduler is not yet running. *)

val start : t -> unit
(** Spawn the scheduler thread. Idempotent. *)

val serve_connection : t -> Unix.file_descr -> unit
(** Serve one client connection until it closes (or the protocol is
    violated), then close the descriptor. Used directly by tests over a
    socketpair; {!run} calls it from per-connection threads. Requires
    {!start}. When the daemon stops, every such connection is shut down:
    its client reads end-of-file. *)

val store : t -> Ftb_compose.Store.t option
(** The daemon's open profile store, when [config.cache] enabled one —
    the CLI's quarantine hook purges poisoned profiles through this
    handle ({!Ftb_compose.Store.invalidate_worker}) without racing the
    daemon's own store writes (the store serializes internally). *)

val boundary_store : t -> Ftb_plan.Boundary_store.t option
(** The daemon's open adaptive boundary store, when [config.cache]
    enabled one. Completed adaptive jobs publish their converged boundary
    here; an adaptive submission whose exact campaign identity (kernel,
    golden fingerprint, model, fuel, config, seed) is already stored is
    served [Completed] with ["served_from_cache":"full"] and zero fresh
    samples. *)

val notify_quarantine : t -> worker:string -> disputes:int -> unit
(** Stream a ["worker_quarantined"] event (fields ["worker"] and
    ["disputes"], plus the usual ["id"]/["seq"]) to every watcher of the
    currently running job. No-op when no job is running. Safe from any
    thread; the CLI calls it from the fleet's on-quarantine hook. *)

val request_shutdown : t -> unit
(** Begin a graceful drain: reject new submissions, suspend the running
    job at its next wave boundary (checkpointed, re-queued), wake the
    scheduler so it exits. Idempotent, safe from any thread. *)

val join : t -> unit
(** Wait for the scheduler thread to exit (it exits only after
    {!request_shutdown}). *)

val run : ?tcp:string * int -> socket:string -> t -> unit
(** Bind the Unix-domain socket (and optionally a TCP endpoint), install
    the SIGTERM drain handler, {!start} the scheduler and accept
    connections until a shutdown request or SIGTERM completes the drain.
    Returns after the scheduler has exited and the socket file has been
    removed. *)
