(** Execution context: the instrumented program's view of the tracer.

    A kernel threaded with a [Ctx.t] reports every floating-point data
    value it produces through {!record}; each call is one *dynamic
    instruction* (fault injection site). Depending on how the context was
    created the call records a golden trace, silently injects a bit flip,
    or additionally records the faulty trace for propagation analysis. *)

type crash_reason =
  | Nan_value  (** a NaN was trapped by a guard or reached the output *)
  | Inf_value  (** an infinity was trapped by a guard or reached the output *)
  | Exception_raised
      (** an exception escaped the kernel body, or the output was
          structurally invalid (wrong length) *)
  | Fuel_exhausted
      (** the divergence watchdog's step budget ran out — the injected
          fault sent the run into non-convergence *)
(** Why a run crashed — the campaign engine's crash taxonomy. Recorded
    alongside every Crash outcome so studies can break abnormal
    terminations down by cause. *)

exception Crash of { reason : crash_reason; what : string }
(** Abnormal termination of an instrumented run — the paper's Crash
    outcome, tagged with its taxonomy reason. Raised by {!guard_finite}
    (modelling a NaN trap or a kernel's own sanity guard), by the fuel
    watchdog inside {!record}, or by kernels directly. *)

type t
(** A context. Single use: one context drives exactly one run. *)

type sink
(** A reusable pair of trace buffers. Campaign loops that perform many
    propagation runs can allocate one sink per domain and pass it to
    {!propagation} for every run — the buffers are reset, not reallocated,
    keeping the tracing hot path free of per-run array growth. *)

val create_sink : unit -> sink
(** A fresh, empty sink. *)

(** Every constructor takes an optional [?fuel] step budget: the maximum
    number of {!record} calls the run may perform before the watchdog
    raises [Crash] with reason {!Fuel_exhausted}. Use it to bound runs of
    iterate-to-convergence kernels that an injected fault can keep from
    ever converging. Omitted means unlimited. [Invalid_argument] when
    [fuel <= 0]. *)

val golden : ?fuel:int -> unit -> t
(** A recording context for the error-free run. *)

val outcome_only : ?fuel:int -> fault:Fault.t -> unit -> t
(** An injecting context that keeps no trace — the cheap mode used for the
    bulk of a campaign where only the final output matters. *)

val outcome_custom : ?fuel:int -> site:int -> corrupt:(float -> float) -> unit -> t
(** Like {!outcome_only} but with an arbitrary corruption function instead
    of a single bit flip — the hook for alternative fault models
    ({!Ftb_inject.Models}): multi-bit bursts, 32-bit flips, random value
    replacement. *)

val propagation :
  ?fuel:int -> ?sink:sink -> fault:Fault.t -> golden_statics:int array -> unit -> t
(** An injecting context that also records the faulty run's values and
    detects control-flow divergence against the golden static-tag stream.
    Recording stops contributing to propagation data past the divergence
    point. When [sink] is given its buffers are reset and reused instead of
    allocating fresh ones; the context's trace is then only valid until the
    sink's next reuse. *)

val propagation_custom :
  ?fuel:int ->
  ?sink:sink ->
  site:int ->
  corrupt:(float -> float) ->
  golden_statics:int array ->
  unit ->
  t
(** {!propagation} generalized to an arbitrary corruption function,
    mirroring {!outcome_custom}: the model-aware adaptive sampler uses it
    to record propagation traces under any fault model's cases. *)

val counting : ?fuel:int -> unit -> t
(** A context that performs only bookkeeping (dynamic-instruction count and
    fuel); every {!record} returns its argument unchanged and nothing is
    stored. Used by the batched campaign executor to drive the shared
    prefix of a site's cases exactly once. *)

(** {1 Prefix snapshots}

    The batched executor runs a site's shared prefix once under a
    {!counting} context, snapshots, and replays only the suffix per case
    with {!resume_custom}. Only the context's own state (position and
    remaining fuel) lives here; interpreter state is snapshotted by the
    program's executor (see [Ftb_ir.Machine]). *)

type snapshot
(** Saved context position: dynamic-instruction index + remaining fuel. *)

val snapshot : t -> snapshot
(** Capture the context's current position. *)

val resume_custom : snapshot -> site:int -> corrupt:(float -> float) -> t
(** An outcome-only injecting context that applies [corrupt] at [site]
    and believes [snapshot.next] dynamic instructions have already
    executed (with the corresponding fuel spent). Behaves exactly like
    {!outcome_custom} run past the same prefix — same injection trigger,
    same fuel-exhaustion point. Raises [Invalid_argument] when [site]
    precedes the snapshot (the injection would be unreachable). *)

val hooked : ?fuel:int -> (index:int -> tag:int -> float -> float) -> t
(** A context that forwards every recorded value to an arbitrary hook and
    continues with the hook's result. The building block of the lockstep
    executor ({!Lockstep}), which uses it to suspend the run at each
    dynamic instruction via an effect. Keeps no trace. *)

val record : t -> tag:int -> float -> float
(** [record t ~tag v] registers [v] as the value of the next dynamic
    instruction, whose static identity is [tag]. Returns [v], or the
    bit-flipped value if this dynamic instruction is the context's
    injection target. Kernels must use the returned value. Raises
    [Crash] with reason {!Fuel_exhausted} when the context's step budget
    is spent. *)

val guard_finite : t -> string -> float -> float
(** [guard_finite t what v] raises [Crash] when [v] is NaN (reason
    {!Nan_value}) or infinite (reason {!Inf_value}) — use at points where
    a real kernel would trap (pivot selection, convergence tests, sqrt of
    a residual norm). Returns [v] unchanged otherwise. This models the
    "NaN exception" crash of §2.1. *)

val length : t -> int
(** Number of dynamic instructions recorded so far. *)

val remaining_fuel : t -> int option
(** Steps left in the budget; [None] when the context is unlimited. *)

(** Results extracted after the run. *)

val trace_values : t -> float array
(** Recorded values (golden or propagation contexts); raises
    [Invalid_argument] on an outcome-only context. *)

val trace_statics : t -> int array
(** Static tag of each recorded dynamic instruction; same restriction as
    {!trace_values}. *)

val trace_length : t -> int
(** Number of recorded trace entries, without copying; same restriction as
    {!trace_values}. *)

val trace_value : t -> int -> float
(** [trace_value t i] is the [i]-th recorded value, without copying the
    trace. Raises [Invalid_argument] out of bounds or on an outcome-only
    context. *)

val injection : t -> (float * float) option
(** [Some (original, corrupted)] once the injection target was reached —
    the pre- and post-flip value at the fault site. [None] for golden
    contexts or when the run ended before the target site. *)

val diverged_at : t -> int option
(** First dynamic index where the faulty run's static tag departed from the
    golden run's (propagation contexts only; [None] otherwise). A faulty
    run that executes *more* dynamic instructions than the golden run is
    marked diverged at the golden length. *)
