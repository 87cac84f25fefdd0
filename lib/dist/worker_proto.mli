(** Frame vocabulary of the distributed worker protocol.

    Workers speak to the campaign daemon over the same length-prefixed
    JSON transport as every other client ({!Ftb_service.Wire}); this
    module owns the five request frames (register / lease / heartbeat /
    result / detach), their reply frames, and the hex codec for shard
    result blobs — so the server-side scheduler ({!Fleet}) and the
    worker loop ({!Worker}) can never drift apart on field names.

    Every exchange is strict request/response: a worker frame is an
    object whose ["cmd"] starts with ["worker_"], dispatched through the
    server's protocol-extension hook; the reply is one [{"ok":...}]
    frame.

    A shard is a dense case range of an exhaustive campaign ({!Shard}):
    a grant names its range, and a result carries one hex blob of
    outcome bytes (["data"]) and its mandatory attestation digest
    (["digest"]), or a typed failure (["error"]):

    {v
    {"cmd":"worker_result","worker":W,"job":J,"lease":L,"shard":S,
     "data":"<hex>","digest":"<hex>"}
    {"cmd":"worker_result","worker":W,"job":J,"lease":L,"shard":S,
     "error":"<message>"}
    v} *)

exception Decode_error of string
(** A frame that parses as JSON but violates the worker protocol (missing
    field, bad hex, server-side error reply). *)

val frame_slack : int
(** Conservative JSON-envelope overhead assumed by {!result_fits}. *)

val max_result_cases : int
(** Largest shard (in cases) whose hex-encoded result frame is guaranteed
    to fit {!Ftb_service.Wire.max_frame}. Both ends enforce it: the
    scheduler never leases a bigger shard to a worker (it runs locally
    instead), and a worker that would somehow produce an oversized blob
    reports a typed failure rather than tripping the transport bound. *)

val result_fits : cases:int -> bool

val hex_of_bytes : Bytes.t -> string
(** Lowercase hex, two characters per byte. *)

val bytes_of_hex : string -> Bytes.t
(** Inverse of {!hex_of_bytes}; raises {!Decode_error} on odd length or a
    non-hex character. *)

val outcome_digest :
  job:int -> shard:int -> lo:int -> hi:int -> fingerprint:string -> Bytes.t -> string
(** Attestation digest binding a shard's result blob to the grant that
    produced it ({!Ftb_util.Fingerprint} over the grant key and the
    blob). Workers attach it to result frames; the scheduler
    recomputes it over the decoded bytes and rejects any mismatch with a
    typed [digest_mismatch] error, so transport or encoding corruption
    never reaches the campaign. It does {e not} defend against a worker
    whose execution was silently wrong before hashing — that is the audit
    re-execution layer's job. *)

(** {1 Worker -> server requests} *)

(** [register ?name ~domains ()] — [?name] is the worker's
    operator-facing identity (default chosen by the caller, e.g.
    [host-pid]); quarantine bars are keyed by this name so a banned
    worker cannot re-register under a fresh wid. *)
val register : ?name:string -> domains:int -> unit -> Ftb_service.Json.t
val lease : worker:int -> Ftb_service.Json.t
val heartbeat : worker:int -> lease:int option -> Ftb_service.Json.t

type result_payload =
  | Blob of { data : Bytes.t; digest : string }
      (** the shard's outcome bytes ({!Shard.run}) and their
          {!outcome_digest} attestation — wire fields ["data"] (hex) and
          ["digest"] *)
  | Failed of string  (** typed worker-side failure; the shard is retried *)

val result :
  worker:int -> job:int -> lease:int -> shard:int -> result_payload -> Ftb_service.Json.t
(** [job] echoes the grant's job id; the scheduler refuses to commit a
    result into any other job's wave, so a straggler from a finished job
    can never corrupt a later campaign that reuses the shard index. *)

type result_frame = {
  res_worker : int;
  res_job : int;
  res_lease : int;
  res_shard : int;
  res_payload : (result_payload, string) Stdlib.result;
      (** [Error] for a body nothing writes: a blob without a digest, a
          blob that is not hex, neither blob nor error. The frame still
          names its lease, so the scheduler refuses it typed and re-runs
          the shard. *)
}

val parse_result : Ftb_service.Json.t -> result_frame
(** The one decoder of result frames (the scheduler's, and the fuzz
    target's). Raises {!Decode_error} when the frame lacks its address
    (worker, job, lease, shard). *)

val detach : worker:int -> Ftb_service.Json.t

(** {1 Server -> worker replies} *)

type registration = { worker : int; ttl : float }

val registered : worker:int -> ttl:float -> Ftb_service.Json.t
val parse_registered : Ftb_service.Json.t -> registration

type grant = {
  job_id : int;
  bench : string;  (** benchmark name, resolved worker-side *)
  fuel : int option;
  model : Ftb_inject.Models.spec;
      (** the job's fault model (mandatory wire field ["model"],
          {!Ftb_inject.Models.spec_to_string} encoding; a grant without
          one is a {!Decode_error}) — the worker runs its leased shard
          under exactly this model *)
  fingerprint : string;
      (** golden-trace digest ({!Ftb_campaign.Checkpoint.fingerprint_of_golden});
          the worker recomputes it and refuses to run a shard against a
          divergent golden trace *)
  lease_id : int;
  shard : int;
  lo : int;
  hi : int;
  ttl : float;  (** renew the lease at least this often *)
}

type lease_reply =
  | Granted of grant
  | Wait of float
      (** nothing became leasable while the daemon held the request; poll
          again after [s] seconds (the daemon long-polls and sends [0.]) *)

val grant_frame : grant -> Ftb_service.Json.t
val wait_frame : poll:float -> Ftb_service.Json.t
val parse_lease_reply : Ftb_service.Json.t -> lease_reply
(** Raises {!Decode_error} on a malformed reply, and on a grant that
    carries a ["cases"] field: a daemon of an older protocol leasing an
    adaptive round's drawn case list, whose [lo, hi) index the draw and
    not the case space. *)

val heartbeat_reply : valid:bool -> Ftb_service.Json.t
val parse_heartbeat_reply : Ftb_service.Json.t -> bool

type result_ack = { committed : bool; stale : bool }

val result_ack_frame : committed:bool -> stale:bool -> Ftb_service.Json.t
val parse_result_ack : Ftb_service.Json.t -> result_ack
val detached_frame : Ftb_service.Json.t

(** {1 Fleet administration} ([ftb workers]) *)

type worker_row = {
  row_wid : int;
  row_name : string;
  row_domains : int;
  row_age : float;  (** seconds since the worker's last heartbeat *)
  row_committed : int;
  row_failed : int;
  row_disputed : int;
  row_quarantined : bool;
}

val workers_request : Ftb_service.Json.t
(** [{"cmd":"worker_stats"}] — list registered workers and barred names. *)

val workers_clear_request : name:string -> Ftb_service.Json.t
(** [{"cmd":"worker_clear","name":...}] — lift a quarantine bar. *)

val workers_frame :
  worker_row list -> barred:(string * int) list -> Ftb_service.Json.t

val parse_workers : Ftb_service.Json.t -> worker_row list * (string * int) list
(** Rows plus the barred-name list ([name, disputes] pairs). *)

val cleared_frame : cleared:bool -> Ftb_service.Json.t
val parse_cleared : Ftb_service.Json.t -> bool

val error_frame : string -> string -> Ftb_service.Json.t
(** [{"ok":false,"error":{"code":...,"message":...}}] — same shape as the
    core daemon protocol's errors. *)

(** {1 Field helpers} (shared with {!Fleet}'s request parsing) *)

val req_int : string -> Ftb_service.Json.t -> int
val req_str : string -> Ftb_service.Json.t -> string
val opt_int : string -> Ftb_service.Json.t -> int option
val opt_str : string -> Ftb_service.Json.t -> string option
val check_ok : Ftb_service.Json.t -> unit
(** Raise {!Decode_error} with the server's error code/message when a
    reply is [{"ok":false}]. *)
