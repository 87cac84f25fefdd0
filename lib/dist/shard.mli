(** One unit of fleet work: a dense case range [\[lo, hi)] of an
    exhaustive campaign (§3.2 ground truth), whose result blob is one
    outcome byte per case. This module is the one place that knows how to
    compute that blob ({!run} — called by the worker and the audit
    oracle; the daemon's local holder writes the same bytes in place
    through the engine's executor) and how to validate a
    received one ({!check} — called once, by the scheduler, before
    anything commits). Adaptive rounds never leave the daemon, so no
    other shard kind exists. *)

val run :
  ?pool:Ftb_inject.Parallel.Pool.t ->
  ?fuel:int ->
  Ftb_inject.Models.spec ->
  Ftb_trace.Golden.t ->
  lo:int ->
  hi:int ->
  Bytes.t
(** The shard's {!Ftb_inject.Executor.range_into_model} outcome bytes,
    computed in site pieces ({!Ftb_inject.Executor.site_pieces}) that the
    domains of [pool], when one is given, steal one at a time; the blob
    is the same either way. *)

val check : lo:int -> hi:int -> Bytes.t -> (unit, string) result
(** Validate a received blob against the range it was granted for: it
    must be exactly [hi - lo] bytes, each a valid outcome byte
    (['\000'..'\005']). *)
