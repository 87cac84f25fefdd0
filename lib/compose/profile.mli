(** Cached profile artifacts: the store's two payload kinds.

    A {e section} profile holds the outcome byte per (site, case) of one
    section — the dense slice [[site_lo * width, (site_lo + sites) *
    width)] of a complete campaign — plus the section's entry-state and
    exit-state fingerprints (the exit fingerprint is the section's
    output-perturbation signature: composing section [j]'s profile before
    section [j+1]'s is consistent iff [j]'s exit fingerprint equals
    [j+1]'s entry fingerprint).

    A {e boundary} profile holds a whole campaign's outcome bytes plus
    its golden fingerprint and outcome counts, keyed by
    {!Section.boundary_key} — the artifact that serves a byte-identical
    resubmission without executing anything.

    On disk both are a single space-split text header line followed by
    the raw outcome bytes, wrapped in the CRC32 envelope by {!Store}:
    {v
    ftb-section-profile-v2 <key> <model> <width> <site_lo> <sites> <entry-fp> <exit-fp> <prov>
    ftb-boundary-profile-v2 <key> <model> <width> <sites> <golden-fp> <masked> <sdc> <crash> <prov>
    v}
    Any other header, the v1 forms without a provenance token included,
    is a {!Ftb_inject.Persist.Format_error} naming the unsupported
    magic; the store quarantines such an entry and the section is
    re-executed. *)

type section = {
  key : string;
  model : string;  (** [Models.spec_to_string] of the campaign's model *)
  width : int;
  site_lo : int;
  sites : int;
  entry_fp : string;
  exit_fp : string;  (** output-perturbation signature *)
  prov : string;  (** provenance token, see {!prov_fleet} *)
  outcomes : string;  (** [sites * width] taxonomy bytes *)
}

type boundary = {
  bkey : string;
  bmodel : string;
  bwidth : int;
  bsites : int;
  golden_fp : string;
  masked : int;
  sdc : int;
  crash : int;
  bprov : string;  (** provenance token, see {!prov_fleet} *)
  boutcomes : string;  (** [bsites * bwidth] taxonomy bytes *)
}

type t = Section of section | Boundary of boundary

val key : t -> string
val prov_of : t -> string

(** {1 Provenance tokens}

    Who computed the bytes, as a trust lattice:
    [local] (computed or audit-adjudicated by this daemon) >
    [fleet:audited:n1,n2] (remote, every surviving shard verified) >
    [fleet:unaudited:n1,n2] (remote, only sample-audited). Consumers
    refuse untrusted tokens unless the operator opts in, and a
    quarantined worker's name indexes the purge
    ({!Store.invalidate_worker}). *)

val prov_local : string

val prov_fleet : audited:bool -> workers:string list -> string
(** [prov_local] when [workers] is empty. Raises [Invalid_argument] on a
    name outside [[A-Za-z0-9._-]+] (registration sanitizes, so this only
    trips on caller bugs). *)

val prov_trusted : string -> bool
(** [local] and [fleet:audited:*] tokens. *)

val prov_workers : string -> string list
(** Worker names in a fleet token; [[]] for [local]. *)

val prov_valid : string -> bool

val write : t -> Buffer.t -> unit
(** Serialize (header + raw bytes); the store wraps this in the CRC32
    envelope. *)

val parse : path:string -> string -> t
(** Decode a payload; raises {!Ftb_inject.Persist.Format_error} (message
    carries [path]) on any malformation — wrong field count, non-integer
    fields, payload length mismatch, or an outcome byte outside the
    taxonomy. *)

val count_outcomes : string -> int * int * int
(** [(masked, sdc, crash)] tallies of an outcome byte string (crash sums
    the whole crash taxonomy). *)
