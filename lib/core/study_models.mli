(** Cross-model resilience comparison — one exhaustive campaign per fault
    model over the same golden trace.

    The paper's campaigns flip single bits of 64-bit FP values; the
    related position papers argue that narrower datapaths, multi-bit
    bursts and value-replacement faults yield materially different SDC
    profiles. This study runs the {e full} (not sampled) campaign under
    each requested {!Ftb_inject.Models.spec} and tabulates the outcome
    mix, so the model sensitivity of a benchmark's resilience is itself a
    reportable result ({!Ftb_report.Render.model_table}). *)

type row = {
  model : Ftb_inject.Models.spec;
  cases : int;  (** size of this model's sample space *)
  masked_ratio : float;
  sdc_ratio : float;
  crash_ratio : float;
  crash_breakdown : Ftb_inject.Ground_truth.reason_counts;
}

type result = { name : string; sites : int; rows : row list }

val row_of_ground_truth : Ftb_inject.Models.spec -> Ftb_inject.Ground_truth.t -> row
(** Tabulate an already-run campaign (e.g. one loaded from a checkpoint). *)

val default_specs : seed:int -> Ftb_inject.Models.spec list
(** Every discrete model plus a representative [Random_value] range —
    the default comparison set of the [models --exhaustive] CLI verb. *)

val run :
  ?pool:Ftb_inject.Parallel.Pool.t ->
  ?domains:int ->
  ?fuel:int ->
  name:string ->
  Ftb_trace.Golden.t ->
  Ftb_inject.Models.spec list ->
  result
(** One exhaustive campaign per spec ({!Ftb_inject.Executor.ground_truth_model});
    outcome bytes are bit-identical to the campaign engine's under the
    same spec. *)

val sample :
  ?fuel:int ->
  samples_per_site:int ->
  Ftb_util.Rng.t ->
  name:string ->
  Ftb_trace.Golden.t ->
  Ftb_inject.Models.spec list ->
  result
(** The sampled counterpart of {!run} ([models] without [--exhaustive]):
    per spec, then per site, draw [min samples_per_site width] distinct
    local cases of the spec's dense width (the 64 replicas of a
    stochastic model included) with
    {!Ftb_util.Rng.sample_without_replacement} — every case, without a
    draw, when the budget covers the site — and classify each with the
    contained {!Ftb_inject.Ground_truth.case_byte_model}, so a kernel
    exception counts as a crash. A row's [cases] is the number of
    injections run. Deterministic given the RNG; raises
    [Invalid_argument] when [samples_per_site] is not positive. *)
