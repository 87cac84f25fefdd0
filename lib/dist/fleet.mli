(** Server-side fleet scheduler: lease campaign shards to remote workers.

    One [Fleet.t] lives inside a campaign daemon and plugs into
    {!Ftb_service.Server} at two points:

    - {!extension} handles the worker protocol frames
      (register / lease / heartbeat / result / detach) on the daemon's
      per-connection threads — plain request/response, no streaming;
    - {!wave_runner} is the {!Ftb_campaign.Engine.wave_runner} factory the
      scheduler thread queries per job: when at least one live worker is
      attached, the engine's shard waves go through a lease table whose
      holders are the workers and the daemon's own local holder.

    Every shard is a dense case range of an exhaustive campaign. Workers
    and the audit oracle compute it with {!Shard.run}; the local holder
    runs it through the engine's own [run_local], in place. Every remote
    blob passes one check ({!Shard.check}) before anything commits. Adaptive (§3.4) rounds never leave the
    daemon: a round draws 0.1 % of the case space and waits on the
    previous round's fold, so shipping it to a worker costs more in
    round trips than its samples take to run. They run on
    {!Ftb_plan.Adaptive_engine.run}'s own serial executor.

    {2 Lease lifecycle}

    A wave holds one shard per executor it must keep busy: the daemon's
    domains plus every live worker's. The scheduler thread is the {e local
    holder}: it claims any pending shard whenever it is free, so a wave
    never waits on a worker that does not lease, and a fleet job always
    terminates. A worker's lease request is a long poll: it waits in the
    daemon until a shard is leasable or a quarter of [lease_ttl] passes,
    and a wave that opens hands a shard to every waiting request before
    the local holder's first claim. Both sides wake on events (a wave
    opening, a commit, a failure, a detach, a quarantine), never on a
    fixed sleep.

    A grant carries a deadline ([lease_ttl] seconds out); the worker's
    heartbeat thread renews it while the shard computes. A worker that
    dies (SIGKILL, network cut) stops renewing: its leases expire at
    their deadline, and the shards return to [Pending] for the local
    holder or the next lease request. A worker that goes silent entirely
    ages out of the live set after three TTLs (recoverably — its next
    frame revives it). Detached workers, and workers silent an order of
    magnitude past the liveness window, are pruned from the registry
    outright so a long-lived daemon with reconnecting workers does not
    accumulate entries.

    {2 Determinism}

    Outcome bytes are a pure function of the golden trace, grants carry
    the golden fingerprint (workers refuse to compute against a divergent
    trace), the lease table commits each shard exactly once
    ({!Lease.commit}), and committed blobs pass through the engine's
    size-guarded [commit] into the shard's own [lo, hi) range. Result
    frames echo the grant's job id, and a result for any job other than
    the active one is dropped as stale — first-result-wins is sound only
    within a single job's golden trace, so a straggler from a finished
    job can never commit into a later campaign that reuses the shard
    index. A result for a shard the local holder is writing in place is
    dropped the same way. Hence a campaign run by any number of workers
    under any interleaving — including mid-shard worker death — is
    bit-identical to the serial run.

    {2 Trust but verify}

    Determinism above assumes workers compute honestly; a worker with
    silently corrupt hardware breaks it without tripping any transport
    check. Three layers defend, cheapest first. (1) {e Validation and
    attestation}: a result blob must fit its grant ({!Shard.check}, else
    a typed [bad_result]) and every result frame carries
    {!Worker_proto.outcome_digest}, which the scheduler recomputes over
    the received blob and rejects on mismatch with a typed
    [digest_mismatch] — a malformed blob and transport or encoding
    corruption never commit; the lease fails and the shard is re-run.
    (2) {e Audit re-execution}: at the end of each wave the scheduler
    re-executes a seeded-deterministic sample of the job's remote commits
    through {!Shard.run} and compares digests. Each worker's sample is
    [audit_rate] of all its commits in the job, however many waves they
    came in, and its first audit in a job is guaranteed. The local executor is the
    adjudicating oracle — a shard's blob is a pure function of the
    golden trace — so a mismatch is a {e dispute}: the oracle's blob
    replaces the worker's (before the engine can checkpoint it), and
    every remaining commit by that worker in the job is re-executed. (3) {e Quarantine}: a worker
    accumulating [quarantine_after] disputes is quarantined — leases
    revoked and refused, results refused, its operator-facing name barred
    from re-registration until cleared ([ftb workers --clear]). The
    sampling rate bounds what a {e partially} lying worker can slip into
    an unaudited, uncached campaign before its first dispute; profiles
    harvested from fleet jobs therefore carry provenance
    ({!job_provenance}) so downstream caching can demand full audit
    coverage or operator trust. *)

type t

val create :
  ?pool:Ftb_inject.Parallel.Pool.t ->
  ?lease_ttl:float ->
  ?audit_rate:float ->
  ?audit_seed:int ->
  ?quarantine_after:int ->
  unit ->
  t
(** [pool] (default none: serial) is where the scheduler's own shard
    executions run — the local holder's shards and the audit oracle; the
    daemon passes its warm pool, and each of its domains counts as one
    executor when a wave is sized. [lease_ttl] (default 5s) bounds how
    long a dead worker can sit on a shard; a lease request waits at most
    a quarter of it for work. [audit_rate] (default 0.02) is the fraction
    of each worker's commits in a job re-executed locally for
    verification — [0.] disables auditing entirely, [1.] re-verifies
    every remote shard; [audit_seed] fixes the deterministic sample.
    [quarantine_after] (default 2) is the dispute count at which a worker
    is quarantined. Raises [Invalid_argument] on non-positive values
    ([audit_rate] may be zero but not negative or above one). *)

val set_on_quarantine : t -> (name:string -> disputes:int -> unit) -> unit
(** Operator hook fired (outside the fleet lock, on the scheduler thread)
    when a worker is quarantined — the daemon uses it to purge cache
    entries with that worker's provenance and notify watchers. *)

val extension : t -> cmd:string -> Ftb_service.Json.t -> Ftb_service.Json.t option
(** Protocol extension for {!Ftb_service.Server.config.extension}:
    handles [worker_*] commands, [None] for everything else. Malformed
    worker frames answer typed [bad_request] / [bad_result] /
    [digest_mismatch] / [unknown_worker] errors. The server's stop call
    ([~cmd:"shutdown"]) closes the fleet: waiting lease requests, and
    every later one, answer a typed [shutting_down] refusal, on which a
    worker exits. *)

val wave_runner :
  t ->
  job_id:int ->
  bench:string ->
  fuel:int option ->
  model:Ftb_inject.Models.spec ->
  golden:Ftb_trace.Golden.t ->
  Ftb_campaign.Engine.wave_runner option
(** Factory for {!Ftb_service.Server.config.wave_runner}. [model] is the
    job's fault model; every grant handed out for this job carries it, so
    workers execute their leased ranges under exactly the model the
    daemon's campaign was submitted with. [None] when no
    live worker is attached (the job runs on the local pool as before);
    otherwise a runner whose wave size is the local domains plus the live
    workers' domains, and whose [run_wave] runs shards on the local
    holder and leases them to workers, renews/expires deadlines,
    reassigns abandoned shards and merges results. *)

val live_workers : t -> int
(** Workers currently attached and heard from within the liveness
    window. *)

type job_provenance = {
  jp_workers : string list;
      (** names of remote workers with at least one surviving (not
          oracle-overwritten) commit in the job; [[]] means every byte
          was computed locally *)
  jp_audited : bool;
      (** every surviving remote commit was audit-verified (implies a
          positive audit rate) — with [audit_rate = 1.] fleet jobs always
          finish audited *)
}

val job_provenance : t -> job_id:int -> job_provenance option
(** Provenance of the most recently driven job; [None] if [job_id] is not
    that job (or it never went through {!wave_runner}). The daemon reads
    it right after a job completes, before harvesting profiles. *)

type stats = {
  granted : int;  (** leases handed to workers *)
  remote_committed : int;  (** shards whose bytes came back over the wire *)
  local_committed : int;  (** shards run by the local holder *)
  expired : int;  (** leases reclaimed from dead/detached workers *)
  stale : int;  (** duplicate / late results dropped without committing *)
  failed : int;  (** worker-reported shard failures handed to engine retry *)
  audited : int;  (** audit re-executions performed *)
  disputed : int;  (** audited shards whose bytes the oracle overruled *)
  quarantined : int;  (** workers quarantined over the fleet's lifetime *)
  bad_digest : int;  (** result frames rejected at the attestation layer *)
  parked : int;  (** lease requests waiting for work right now *)
}

val stats : t -> stats
