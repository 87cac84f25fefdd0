(** Exhaustive fault-injection campaign results — the ground truth.

    One outcome per (site, bit) case of the complete sample space. The
    paper uses such campaigns both to *evaluate* the inference method and
    to build the brute-force boundary of §4.1. Outcomes are stored one byte
    per case; since the crash taxonomy the byte also records *why* a case
    crashed (NaN, Inf, escaped exception, or the fuel watchdog). Injected
    error magnitudes are not stored because they are a pure function of the
    golden value and the bit ({!injected_error}). *)

type t = private {
  golden : Ftb_trace.Golden.t;
  outcomes : Bytes.t;  (** one byte per case, dense {!Ftb_trace.Fault.to_case} order *)
}

type reason_counts = { nan : int; inf : int; exn : int; fuel : int }
(** Crash-taxonomy tallies: how many cases crashed for each reason. *)

val run : ?fuel:int -> Ftb_trace.Golden.t -> t
(** The per-case oracle: the complete bit-flip-64 campaign as [sites * 64]
    serial {!case_byte_model} executions, with no batching, pooling or
    cone replay. Campaigns use [Executor.ground_truth_model]; this stays
    so differential tests have an independent reference to compare
    against. *)

val of_outcomes : ?width:int -> Ftb_trace.Golden.t -> Bytes.t -> t
(** Assemble a campaign result from raw outcome bytes (one of
    {!case_byte_model} per case, dense order). Used by the parallel campaign
    runner, the resumable campaign engine and the persistence layer;
    validates the length ([sites * width], default width 64) and byte
    values. Pass the fault model's {!Models.spec_width} as [width] for
    non-default campaigns. *)

val byte_of_result : Ftb_trace.Runner.result -> char
(** The stored byte of a classified run, including the crash reason:
    '\000' masked, '\001' sdc, '\002' crash/exception, '\003' crash/nan,
    '\004' crash/inf, '\005' crash/fuel. *)

val crash_byte : Ftb_trace.Ctx.crash_reason -> char
(** The stored byte of a crash with the given taxonomy reason (the Crash
    rows of {!byte_of_result}). The batched executor uses it to replicate
    a prefix crash — which happens before any injection — to every case
    of a site. *)

val outcome_of_byte : char -> Ftb_trace.Runner.outcome
(** Decode a stored byte; raises [Invalid_argument] on bytes outside
    '\000'..'\005'. All four crash bytes decode to [Crash]. *)

val crash_reason_of_byte : char -> Ftb_trace.Ctx.crash_reason option
(** The taxonomy reason encoded in a stored byte; [None] for masked/sdc. *)

val case_byte_model : ?fuel:int -> Models.spec -> Ftb_trace.Golden.t -> int -> char
(** Run the dense case [case] of the model's case space (site
    [case / spec_width]) contained and bounded by the optional [fuel]
    watchdog, applying {!Models.case_corrupt}, and return its
    taxonomy-carrying outcome byte. This is the per-case unit of work
    every campaign path falls back to (serial, pooled, checkpointed
    engine, sampled jobs), so outcome bytes are bit-identical across all
    of them. Deterministic for stochastic models (the per-case RNG is
    derived, not threaded). *)

val outcome : t -> int -> Ftb_trace.Runner.outcome
(** Outcome of a dense case index. *)

val crash_reason : t -> int -> Ftb_trace.Ctx.crash_reason option
(** Crash-taxonomy reason of a dense case index; [None] unless the case
    crashed. *)

val outcome_of_fault : t -> Ftb_trace.Fault.t -> Ftb_trace.Runner.outcome

val cases : t -> int
(** Size of the sample space. *)

val injected_error : Ftb_trace.Golden.t -> Ftb_trace.Fault.t -> float
(** Error magnitude the fault injects: |flip(v) − v| for the golden value
    [v] at the fault's site, [infinity] when the flip is non-finite. This
    is exact for any run because execution is deterministic up to the
    injection point. *)

val injected_error_model : Models.spec -> Ftb_trace.Golden.t -> case:int -> float
(** {!injected_error} generalized to an arbitrary fault model:
    |corrupt(v) − v| for the model's corruption of the golden value at the
    case's site, [infinity] when non-finite. For [Bit_flip_64] this is
    exactly {!injected_error} of the case's fault — float-identical to
    every pre-model prediction path. Deterministic for stochastic models
    (the per-case corruption is derived from the dense case index). *)

val counts : t -> masked:int ref -> sdc:int ref -> crash:int ref -> unit
(** Accumulate global outcome counts into the given refs. *)

val crash_counts : t -> reason_counts
(** Break the campaign's crashes down by taxonomy reason. *)

val sdc_ratio : t -> float
(** Global [n_sdc / N] (§2.1). *)

val masked_ratio : t -> float
val crash_ratio : t -> float

val site_sdc_ratio : t -> float array
(** Per-site SDC ratio: fraction of the site's 64 flips that end in SDC —
    the per-instruction vulnerability profile of Figure 4. *)

val site_masked_count : t -> int array
(** Per-site number of masked flips. *)
