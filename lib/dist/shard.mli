(** One unit of fleet work, whichever half of the method it serves.

    The fleet runs two kinds of shard: a dense case range of an
    exhaustive campaign (§3.2 ground truth), and a slice of an adaptive
    round's drawn case list (§3.4). Both reduce to one result blob:
    outcome bytes for a range, a {!Ftb_inject.Sample_codec} blob for a
    drawn slice. This module is the one place that knows how to compute
    that blob ({!run} — called by the worker, the scheduler's local
    fallback and the audit oracle alike) and how to validate a received
    one ({!check} — called once, by the scheduler, before anything
    commits). *)

type t =
  | Range of { lo : int; hi : int }
      (** dense cases [lo, hi) of the model's case space; the blob is one
          outcome byte per case *)
  | Cases of int array
      (** dense case indices drawn by the adaptive planner, run in order
          with tracing; the blob is one codec sample per case *)

val of_wave : int array option -> lo:int -> hi:int -> t
(** Shard [lo, hi) of a wave: a [Range] when the wave is dense ([None]),
    otherwise positions [lo, hi) of the drawn round. *)

val run :
  ?pool:Ftb_inject.Parallel.Pool.t ->
  ?fuel:int ->
  Ftb_inject.Models.spec ->
  Ftb_trace.Golden.t ->
  t ->
  Bytes.t
(** The shard's result blob: {!Ftb_inject.Executor.range_into_model}
    bytes for a [Range], the encoded {!Ftb_inject.Sample_run.run_case_model}
    samples for [Cases]. The cases are split over [pool] when one is
    given; the blob is the same either way. *)

val check : Ftb_inject.Models.spec -> sites:int -> t -> Bytes.t -> (unit, string) result
(** Validate a received blob against the shard it was granted for, on a
    program of [sites] dynamic instructions. A [Range] blob must be
    exactly [hi - lo] bytes, each a valid outcome byte
    (['\000'..'\005']). A [Cases] blob must decode to samples that pass
    {!Ftb_inject.Sample_codec.validate} against the granted cases: one
    per case, in grant order, with no propagation site past [sites]. *)
