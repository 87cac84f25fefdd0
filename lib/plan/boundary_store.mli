(** Servable store of converged fault-tolerance boundaries.

    An adaptive campaign's boundary dies with its result file unless it
    becomes a reusable artifact: this store persists each converged
    boundary — with per-site support, the §3.6 uncertainty, the fault
    model, the kernel identity, the sample fraction and a provenance
    token — as an entry of the content-addressed substrate
    {!Ftb_inject.Cas}, next to the compose cache. The substrate owns the
    layout, the CRC envelope, quarantine, gc and stats; this module keeps
    the entry codec, the sorted index and {!query}. The key hashes the
    complete campaign identity (kernel name, golden fingerprint, model,
    fuel, adaptive config, seed), so an exact-key hit is the *same*
    campaign: serving the stored entry, or warm-starting a repeat
    submission from it, cannot change a single byte of the answer.

    A sorted index file (a pure accelerator, rebuilt from a scan whenever
    missing, corrupt or stale) gives O(log n) by-kernel lookup; queries
    then answer "is (site, bit) predicted Masked, with what threshold and
    uncertainty?" from the stored golden values alone — zero kernel
    execution. *)

type entry = {
  key : string;  (** content key over the campaign identity *)
  bench : string;  (** kernel name *)
  fingerprint : string;  (** golden-trace fingerprint *)
  spec : Ftb_inject.Models.spec;
  fuel : int option;
  config : Ftb_core.Adaptive.config;
  seed : int;
  sites : int;
  thresholds : float array;  (** the boundary, one threshold per site *)
  support : int array;  (** per-site masked-propagation observations *)
  golden_values : float array;  (** per-site golden value — the query input *)
  uncertainty : float;  (** §3.6 self-check, model-aware *)
  rounds : int;
  samples : int;
  masked : int;  (** outcome tallies over the campaign's samples — *)
  sdc : int;  (** what a daemon serving this entry reports as counts *)
  crash : int;
  sample_fraction : float;
  stop : Ftb_core.Adaptive.stop_reason;
  prov : string;  (** opaque space-free provenance token *)
  created : float;  (** unix time the entry was recorded *)
}

val prov_local : string
(** ["local"] — the default provenance token. *)

val key_of :
  bench:string ->
  fingerprint:string ->
  spec:Ftb_inject.Models.spec ->
  fuel:int option ->
  config:Ftb_core.Adaptive.config ->
  seed:int ->
  string
(** Content key of a campaign identity (32 hex chars). *)

val entry_of_result :
  ?prov:string ->
  bench:string ->
  spec:Ftb_inject.Models.spec ->
  fuel:int option ->
  config:Ftb_core.Adaptive.config ->
  seed:int ->
  created:float ->
  Ftb_trace.Golden.t ->
  Ftb_core.Adaptive.result ->
  entry
(** Package a converged campaign for the store: copies the thresholds,
    support and golden values, and computes the model-aware §3.6
    uncertainty from the result's own samples. Raises [Invalid_argument]
    on a malformed bench or provenance token. *)

type t
(** An open store rooted at a directory. *)

val open_ : root:string -> t
(** Open (creating directories as needed). *)

val root : t -> string
val path_of_key : t -> string -> string

val put : t -> entry -> unit
(** Persist an entry (atomic, enveloped) and update the index. *)

val find : t -> key:string -> entry option
(** Exact-key lookup. A corrupt or mis-keyed entry is quarantined
    (store convention) and reported as a miss. *)

val find_latest : t -> bench:string -> ?spec:Ftb_inject.Models.spec -> unit -> entry option
(** Most recently created entry for a kernel (optionally restricted to
    one fault model), via the sorted index — O(log n) to locate the
    kernel's range. Rebuilds the index when it is missing, corrupt or
    points at an entry that no longer validates; in the last case the
    lookup is retried once on the rebuilt index, so an older valid entry
    still answers. *)

val list : t -> entry list
(** Every valid entry, sorted by kernel then newest first. *)

val gc : t -> keep:int -> int
(** Drop all but the [keep] most recently created entries; returns the
    number removed. Raises [Invalid_argument] on negative [keep]. *)

type stats = Ftb_inject.Cas.stats = { entries : int; bytes : int; quarantined : int }

val stats : t -> stats

type prediction = {
  outcome : [ `Masked | `Sdc ];
  threshold : float;
  injected_error : float;
  site_support : int;
  entry_uncertainty : float;
}

val query : entry -> site:int -> bit:int -> prediction
(** Predict one (site, bit) case from the stored entry alone: the
    injected error is the model's corruption of the stored golden value,
    compared against the site's threshold. Zero kernel execution. Raises
    [Invalid_argument] when [site] or [bit] is outside the entry's case
    space ([bit] ranges over the model's width). *)
