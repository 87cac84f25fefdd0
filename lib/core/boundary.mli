(** The fault tolerance boundary (§3.2–3.5).

    The boundary assigns every dynamic instruction [i] a threshold
    [Δe_i ≥ 0]: the largest error magnitude the program is believed to
    tolerate when injected at [i]. Two constructions are provided:

    - {!infer}: Algorithm 1 — aggregate the propagated perturbations of
      masked sampled experiments, taking the per-site maximum, optionally
      guarded by the §3.5 filter operation;
    - {!exhaustive}: the §4.1 brute-force construction from a complete
      campaign — per site, the largest masked injected error that is still
      below the smallest SDC-producing injected error.

    Thresholds of [0.] mean "no evidence of tolerance"; [infinity] means
    "no error at this site was ever seen to matter". *)

type t = private {
  thresholds : float array;  (** [Δe] per dynamic instruction *)
  support : int array;
      (** number of masked propagation observations that contributed to
          each site's threshold (its evidence mass) *)
}

val create : sites:int -> t
(** All-zero boundary over [sites] dynamic instructions. *)

val sites : t -> int
val threshold : t -> int -> float

val copy : t -> t

val add_masked_propagation :
  ?min_sdc_error:float array -> t -> int array * float array -> unit
(** [add_masked_propagation t (sites, deviations)] folds one masked
    experiment's sparse propagation ({!Ftb_inject.Sample_run.t}) into the
    boundary: [Δe_j ← max Δe_j deviations.(i)] for [j = sites.(i)]
    (Algorithm 1). Zero deviations carry no evidence and are skipped.
    When [min_sdc_error] is given (the filter operation, §3.5), a
    deviation at site [j] that is not strictly below [min_sdc_error.(j)]
    is discarded instead of aggregated. Raises [Invalid_argument] when
    the arrays differ in length or a site is out of range. *)

val min_sdc_errors : sites:int -> Ftb_inject.Sample_run.t array -> float array
(** Per-site minimum injected error over the SDC samples ([infinity]
    where no SDC sample exists) — the reference values of the filter
    operation. *)

val infer :
  ?filter:bool -> sites:int -> Ftb_inject.Sample_run.t array -> t
(** Build a boundary from sampled experiments per Algorithm 1. [filter]
    (default [false]) enables the §3.5 filter operation using the SDC
    samples in the same set. *)

(** {1 Incremental inference}

    Folding samples batch by batch into an accumulator gives, after every
    batch, exactly [infer] over all samples so far (same bits), at the
    cost of the batch plus the sites whose SDC floor it lowered. *)

type accumulator

val accumulator : filter:bool -> sites:int -> accumulator
(** An empty accumulator; [filter] as in {!infer}. *)

val accumulate : accumulator -> Ftb_inject.Sample_run.t array -> unit
(** Fold a batch. Raises [Invalid_argument] like
    {!add_masked_propagation}. *)

val accumulated : accumulator -> t
(** The boundary so far. It is the accumulator's own, updated in place by
    later batches: copy it to keep a snapshot. *)

val exhaustive : Ftb_inject.Ground_truth.t -> t
(** The §4.1 brute-force boundary. Per site, with [E_m] the injected
    errors of masked flips and [E_s] those of SDC flips: the threshold is
    [max { e ∈ E_m | e < min E_s }] (with [min E_s = infinity] when the
    site has no SDC flip), or [0.] when the set is empty. Each
    contributing flip also counts as support. Crash flips are excluded:
    they are detectable outcomes, not silent corruptions. *)
