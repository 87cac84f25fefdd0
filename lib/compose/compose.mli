(** The composer: stitch cached section profiles into whole boundaries.

    Three paths, fastest first:
    - {b full hit}: a boundary profile exists under the program's
      {!Section.boundary_key} — the whole campaign's bytes are served by
      one hash and one store read, without executing anything (not even a
      golden run);
    - {b partial hit}: some sections' profiles are cached — their bytes
      are reused and only missed sections' cases execute, through the
      PR 7 dependent-cone replay fast path;
    - {b cold}: nothing cached (or the program is unsectionizable) — a
      from-scratch campaign, after which every section and the boundary
      are harvested into the store.

    Every path is byte-identical to the from-scratch campaign by
    construction: keys cover everything outcomes depend on, replay
    validation vetoes unsound groupings, and accepted profiles are
    re-checked field-by-field against the plan. *)

type status = Hit of Profile.section | Miss

type planned = {
  plan : Section.plan;
  statuses : status array;  (** one per plan section *)
  hit_sections : int;
  miss_sections : int;
  hit_cases : int;
  total_cases : int;
}

val full_hit : planned -> bool
val any_hit : planned -> bool
(** At least one case comes from the store ([hit_cases > 0]); zero-site
    sections, trivially "hit", do not count. *)

val probe :
  ?trust_unaudited:bool ->
  Store.t ->
  ir:Ftb_ir.Ir.t ->
  golden:Ftb_trace.Golden.t ->
  model:Ftb_inject.Models.spec ->
  fuel:int option ->
  planned option
(** Sectionize and look every section up in the store. [None] when the
    program cannot be sectionized (callers run cold). Accepted profiles
    passed every consistency check (model, width, range, entry/exit
    fingerprint chain) {e and} carry trusted provenance
    ({!Profile.prov_trusted}) — unaudited fleet-harvested profiles are
    treated as misses unless [trust_unaudited] (default [false]). *)

val probe_boundary :
  ?trust_unaudited:bool ->
  Store.t ->
  ir:Ftb_ir.Ir.t ->
  model:Ftb_inject.Models.spec ->
  fuel:int option ->
  Profile.boundary option
(** Whole-boundary lookup by {!Section.boundary_key}; requires no golden
    run — the submit-time fast path. Refuses a boundary with untrusted
    provenance unless [trust_unaudited] (default [false]): a full hit
    executes {e nothing}, so it is exactly the path a poisoned profile
    would ride. *)

val checkpoint_of_boundary :
  Profile.boundary -> program:string -> shard_size:int -> Ftb_campaign.Checkpoint.t
(** A fully-completed synthetic checkpoint carrying the cached bytes,
    counts and golden fingerprint — what the daemon persists for a job it
    served from the cache, so [watch]/result fetch and crash-restart see
    exactly what a real run would have written. *)

val seed_checkpoint :
  planned -> Ftb_trace.Golden.t -> shard_size:int -> Ftb_campaign.Checkpoint.t
(** A fresh checkpoint with every cached section's bytes blitted in and
    every fully-covered shard marked completed. Run through
    {!Ftb_campaign.Engine.run} with [resume], the engine schedules only
    the remaining shards — the reduced campaign that the pool or the
    worker fleet drains; a fully-seeded checkpoint schedules zero waves. *)

val harvest : ?prov:string -> Store.t -> planned -> outcomes:Bytes.t -> unit
(** Store the profile of every {e missed} section out of a completed
    campaign's outcome bytes (hits are already stored). [prov] (default
    {!Profile.prov_local}) records who computed the bytes — fleet jobs
    pass {!Profile.prov_fleet} of the contributing workers. *)

val put_boundary :
  ?prov:string ->
  Store.t ->
  ir:Ftb_ir.Ir.t ->
  model:Ftb_inject.Models.spec ->
  fuel:int option ->
  golden_fp:string ->
  sites:int ->
  outcomes:Bytes.t ->
  unit
(** Store/refresh the whole-boundary profile of a completed campaign;
    [prov] as in {!harvest}. *)

type provenance = Cold | Partial | Full

type report = {
  outcomes : Bytes.t;  (** the composed boundary, dense case order *)
  sites : int;
  width : int;
  provenance : provenance;
  sections_total : int;  (** 0 when served whole or unsectionizable *)
  sections_hit : int;
  cases_reused : int;
  cases_executed : int;
}

val run :
  ?fuel:int ->
  ?model:Ftb_inject.Models.spec ->
  Store.t ->
  ir:Ftb_ir.Ir.t ->
  Ftb_trace.Golden.t ->
  report
(** Direct composed campaign (no daemon): serve from the boundary
    profile when possible, else compose hits and execute misses via
    {!Ftb_inject.Executor.range_into_model}, then harvest everything.
    [golden] must be the golden run of (a lowering of) [ir]. Outcome
    bytes are byte-identical to
    {!Ftb_inject.Executor.ground_truth_model} on every path. *)
