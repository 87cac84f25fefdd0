(** Campaign checkpoints: partial outcome bytes plus a shard manifest.

    A checkpoint captures an exhaustive campaign mid-flight: the dense
    outcome byte array (taxonomy encoding, see
    {!Ftb_inject.Ground_truth.byte_of_result}) and a manifest of which
    shards have completed. Writes are atomic (temp file + rename), so the
    file on disk is always a complete checkpoint — a killed campaign
    resumes from its last checkpoint with no recovery step.

    On-disk, the payload below is wrapped in the
    {!Ftb_inject.Persist.save_enveloped} integrity envelope (length +
    CRC32), so a flipped byte or torn write is detected on load before
    any field is trusted:
    {v
    ftb-campaign-v3 <program> <sites> <shard_size> <model> <golden-fingerprint>
    <manifest: one '0'/'1' per shard>
    <raw outcome bytes, full length>
    v}

    [<model>] is the single-token {!Ftb_inject.Models.spec_to_string}
    encoding of the campaign's fault model. A complete checkpoint is the
    durable form of a finished exhaustive campaign ({!ground_truth}
    seals it). Any other format — the v2 header without a model field,
    bytes without the envelope, a bare ground-truth file — is a
    {!Ftb_inject.Persist.Format_error} naming the unsupported magic, and
    {!Engine}'s [Restart] policy then quarantines it and rebuilds. *)

type t = {
  program : string;
  sites : int;
  shard_size : int;
  model : Ftb_inject.Models.spec;  (** the campaign's fault model *)
  fingerprint : string;  (** hex digest of the golden trace values *)
  completed : bool array;  (** one flag per shard *)
  outcomes : Bytes.t;
      (** [sites * spec_width model] outcome bytes; only bytes inside
          completed shards are meaningful *)
}

val create : ?model:Ftb_inject.Models.spec -> Ftb_trace.Golden.t -> shard_size:int -> t
(** A fresh checkpoint with no completed shards, sized to the model's
    dense case space ([model] defaults to the paper's
    {!Ftb_inject.Models.default_spec}). *)

val fingerprint_of_golden : Ftb_trace.Golden.t -> string
(** Bit-exact digest of the golden run's trace values. A resumed campaign
    whose fingerprint differs was recorded against different inputs and is
    rejected. *)

val shards : t -> int
val completed_count : t -> int
val completed_cases : t -> int
val is_complete : t -> bool

val ground_truth : Ftb_trace.Golden.t -> t -> Ftb_inject.Ground_truth.t
(** Seal a complete checkpoint into a campaign result; raises
    [Invalid_argument] when shards are still missing. *)

val save : path:string -> t -> unit
(** Atomic write (always format v3). *)

val load :
  ?model:Ftb_inject.Models.spec ->
  path:string ->
  shard_size:int ->
  Ftb_trace.Golden.t ->
  t
(** Load and validate a checkpoint against the golden run and fault model
    it will resume ([model] defaults to
    {!Ftb_inject.Models.default_spec}): program name, site count, fault
    model, golden fingerprint and outcome bytes of completed shards are
    all checked. Raises {!Ftb_inject.Persist.Format_error} (messages
    carry the offending path and line) on any mismatch or corruption.
    [shard_size] is unused: a checkpoint records its own sharding. *)
