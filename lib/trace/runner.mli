(** Single fault-injection experiments.

    Two execution modes mirror the cost split of the method: an
    *outcome-only* run (cheap — no tracing) classifies one (site, bit) case
    as Masked / SDC / Crash; a *propagation* run additionally records the
    faulty trace and diffs it against the golden run, producing the
    per-instruction perturbations Δx that feed Algorithm 1.

    Every runner takes an optional [?fuel] step budget (the divergence
    watchdog, see {!Ctx}); a run that exhausts it is classified Crash with
    reason {!Ctx.Fuel_exhausted}. *)

type outcome = Masked | Sdc | Crash

val outcome_equal : outcome -> outcome -> bool
val outcome_to_string : outcome -> string

type result = {
  fault : Fault.t;
  outcome : outcome;
  crash_reason : Ctx.crash_reason option;
      (** the crash taxonomy entry; [Some _] iff [outcome = Crash] *)
  injected_error : float;
      (** |corrupted − original| at the fault site; [infinity] when the flip
          produced a non-finite value. *)
  output_error : float;
      (** L∞ distance of the final output from the golden output;
          [infinity] on Crash. *)
}

type propagation = {
  result : result;
  start : int;  (** first covered site — the fault site itself *)
  stop : int;
      (** exclusive end of coverage: the control-flow divergence point, the
          faulty run's own end (on crash), or the golden length *)
  deviations : float array;
      (** [deviations.(j - start)] = |golden_j − faulty_j| for
          [start <= j < stop] *)
}

val run_outcome : ?fuel:int -> Golden.t -> Fault.t -> result
(** Execute one injection and classify it. Classification: a raised
    [Ctx.Crash] or a non-finite output is Crash (the crash reason records
    whether a NaN, an infinity, or the fuel watchdog terminated the run);
    otherwise Masked iff the L∞ output error is within the program's
    tolerance, else SDC. Raises [Invalid_argument] when the fault site is
    outside the program's dynamic range. *)

val run_outcome_custom_contained :
  ?fuel:int -> Golden.t -> site:int -> corrupt:(float -> float) -> result
(** Like {!run_outcome} but with an arbitrary corruption function applied
    to the value produced at [site] — the per-case unit of work of every
    fault model. The returned [fault] field carries [site] with bit 0 as
    a placeholder (custom corruptions have no single bit). Any exception
    escaping the kernel body — not only the cooperative [Ctx.Crash] — is
    contained and classified as Crash with reason
    {!Ctx.Exception_raised}: one broken case must never abort a campaign.
    [Out_of_memory] and errors raised before the body starts (e.g. an
    out-of-range site) still propagate. *)

val outcome_of_run_contained :
  Golden.t -> Fault.t -> Ctx.t -> (Ctx.t -> float array) -> result
(** Classify one execution of an arbitrary run function under an
    already-constructed injecting context — the generalization behind
    {!run_outcome} ([run] is then the program body). The batched campaign
    executor passes the suffix replay of a paused execution together with a
    context resumed at the snapshot position ({!Ctx.resume_custom}).
    Crash containment as in a campaign: any exception other than
    [Out_of_memory] escaping [run] classifies as Crash with reason
    {!Ctx.Exception_raised}. *)

val run_propagation : ?fuel:int -> ?sink:Ctx.sink -> Golden.t -> Fault.t -> propagation
(** Execute one injection with tracing and compute the propagated
    per-instruction deviations. Coverage ends at the first control-flow
    divergence, so deviations are only reported where the faulty run
    executed the same instruction sequence as the golden run (§2.2).
    [sink] optionally reuses a caller-owned trace buffer pair
    ({!Ctx.create_sink}) instead of allocating fresh buffers — campaign
    loops keep one sink per domain. The returned deviations are always
    freshly allocated, so reusing the sink afterwards is safe. *)

val run_propagation_custom :
  ?fuel:int ->
  ?sink:Ctx.sink ->
  Golden.t ->
  fault:Fault.t ->
  corrupt:(float -> float) ->
  propagation
(** {!run_propagation} with an arbitrary corruption function applied at the
    fault's site, mirroring {!run_outcome_custom_contained}: the
    model-aware adaptive sampler traces propagation under any fault
    model's cases. [fault]
    carries the case's (site, local-bit) identity for bookkeeping; the
    corruption actually applied is [corrupt], not the fault's bit flip. *)
