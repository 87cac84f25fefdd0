(** The worker side of the fleet: pull leased shards, compute, stream back.

    A worker process opens two connections to the daemon through
    [config.connect] — a control channel (register, lease polls, results,
    detach) and a heartbeat channel driven by a dedicated thread, so lease
    renewal keeps flowing while a shard computes on the worker's own
    domain pool. Each granted shard, a dense case range, is executed by
    {!Shard.run}, the same function the daemon's audit oracle calls, so
    the returned blob is bit-identical to what the daemon would have
    computed itself; the
    grant's golden fingerprint is verified first and a mismatch is
    reported as a typed shard failure instead of silently computing
    against a divergent trace. *)

type config = {
  connect : unit -> Unix.file_descr;
      (** fresh connection to the daemon; called twice (control +
          heartbeat). Tests pass a socketpair factory, the CLI passes
          {!connect_endpoint}. *)
  domains : int;  (** pool width for shard execution; 1 = serial *)
  resolve : string -> Ftb_trace.Program.t;  (** benchmark lookup *)
  stop : unit -> bool;
      (** polled between leases — an idle worker's lease request returns
          at least every quarter lease TTL; [true] detaches and returns *)
  log : (string -> unit) option;
  name : string option;
      (** operator-facing identity sent at registration; quarantine bars
          are keyed by it (default: server assigns [worker-<wid>]) *)
  tamper : (bench:string -> shard:int -> Bytes.t -> Bytes.t) option;
      (** chaos-test hook: corrupt a shard's result blob {e before} the
          attestation digest is computed, modelling silent worker-side
          corruption that only audit re-execution can catch. Never set in
          production paths. *)
}

val config :
  ?domains:int ->
  ?resolve:(string -> Ftb_trace.Program.t) ->
  ?stop:(unit -> bool) ->
  ?log:(string -> unit) ->
  ?name:string ->
  ?tamper:(bench:string -> shard:int -> Bytes.t -> Bytes.t) ->
  (unit -> Unix.file_descr) ->
  config
(** Defaults: [domains = 1], [resolve = Ftb_kernels.Suite.find], never
    stop, no logging, server-assigned name, no tampering. *)

type stats = {
  shards : int;  (** shards computed and sent *)
  cases : int;  (** total cases across those shards *)
  failures : int;  (** typed shard failures reported to the daemon *)
  stale_acks : int;  (** results the daemon dropped as already-committed *)
}

val run : config -> stats
(** Register and serve leases until [stop] answers [true] (clean detach)
    or the daemon closes the connection. Transport loss ([Wire.Closed],
    [EPIPE], [ECONNRESET]) is a clean exit — the daemon's lease expiry
    machinery handles the abandoned shard. A heartbeat channel that fails
    and cannot be reconnected also ends the worker cleanly: without lease
    renewal every slow shard's result would be discarded as stale, so the
    worker exits visibly instead of degrading silently. A typed
    server-side rejection of one result frame counts as a shard failure
    and the loop continues, while a typed refusal of a lease poll (the
    worker was quarantined or pruned) ends the worker cleanly with its
    stats. Other exceptions propagate after best-effort
    cleanup. Ignores [SIGPIPE] process-wide (as {!Ftb_service.Server.run}
    does), so a daemon hangup mid-write is an [EPIPE] and not a fatal
    signal. *)

(** {1 Endpoint plumbing for the CLI} *)

type endpoint = Unix_socket of string | Tcp of string * int

val endpoint_of_addr : string -> endpoint
(** [host:port] (no slash, numeric port) parses as {!Tcp}; anything else
    is a Unix-domain socket path. *)

val connect_endpoint : endpoint -> Unix.file_descr
