(** Sampled fault-injection experiments with propagation data.

    A Monte-Carlo campaign draws a subset of the (site, bit) sample space
    and runs each case with tracing. Masked experiments keep their
    propagated per-instruction deviations (the input of Algorithm 1); SDC
    and Crash experiments keep only their injected error (SDC feeds the
    §3.5 filter operation). *)

type t = {
  fault : Ftb_trace.Fault.t;
  outcome : Ftb_trace.Runner.outcome;
  crash_reason : Ftb_trace.Ctx.crash_reason option;
      (** crash-taxonomy reason; [Some _] iff [outcome = Crash] *)
  injected_error : float;
  propagation : (int array * float array) option;
      (** [(sites, deviations)] — kept for Masked experiments only: the
          sparse propagation, [deviations.(i)] being the perturbation
          [|golden_j - faulty_j|] (NaN read as [infinity]) observed at
          dynamic instruction [j = sites.(i)]. Sites ascend strictly and
          every deviation is positive: the instructions a deviation of
          zero leaves out carry no evidence ({!Ftb_core.Boundary} and
          {!Ftb_core.Info} skip them). *)
}

val run_case_model : ?fuel:int -> Models.spec -> Ftb_trace.Golden.t -> int -> t
(** Run one dense case of the model's case space (site
    [case / spec_width], local bit [case mod spec_width]) as a propagation
    experiment, applying {!Models.case_corrupt}, optionally bounded by the
    [fuel] watchdog. Deterministic for stochastic models.

    Two tiers, with identical results: where {!Executor.cone_plan}
    gives a plan under [fuel] and its [cone_trace] covers the site, one
    forward scan of the site's cone over the golden dataflow; otherwise
    (no plan, a site whose cone feeds a float branch, or fuel below the
    golden site count) a traced run of the whole program, its zero
    deviations dropped. *)

val run_cases : ?fuel:int -> Ftb_trace.Golden.t -> int array -> t array
(** Run every given case of the bit-flip-64 space as a propagation
    experiment ({!run_case_model} under {!Models.default_spec}). *)

val draw_uniform_model :
  Ftb_util.Rng.t -> Models.spec -> Ftb_trace.Golden.t -> fraction:float -> int array
(** Uniform sample without replacement of [ceil (fraction * n)] case
    indices of the model's case space ([n = Models.total_cases]).
    [fraction] must be in (0, 1]. *)

val draw_uniform : Ftb_util.Rng.t -> Ftb_trace.Golden.t -> fraction:float -> int array
(** {!draw_uniform_model} under {!Models.default_spec}. *)

val count_outcomes : t array -> int * int * int
(** [(masked, sdc, crash)] tallies. *)

val count_cases_model :
  ?fuel:int -> Models.spec -> Ftb_trace.Golden.t -> int array -> int * int * int
(** [(masked, sdc, crash)] tallies of the given cases of the model's case
    space, each classified outcome-only and contained
    ({!Ground_truth.case_byte_model}): an exception escaping the kernel
    counts as a crash instead of aborting the count. *)
