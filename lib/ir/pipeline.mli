(** The IR optimizing pipeline and its structural validator.

    Runs {!Passes} in sequence; after every pass, re-checks that the
    program still validates, that the distinct instruction labels in
    first-appearance order are unchanged (this pins [Ir.to_program]'s
    tag numbering, keeping campaign ground truth comparable), and that
    the dynamic event stream is preserved with bitwise-equal floats.
    Any violation raises {!Pipeline_error} naming the offending pass. *)

exception Pipeline_error of string

type pass_stat = {
  pass_name : string;
  stmts_before : int;
  stmts_after : int;
  ops_before : int;
  ops_after : int;
}

val default_passes : Passes.pass list
(** {!Passes.all}. *)

val labels_of : Ir.t -> string list
(** Distinct instruction labels in first-appearance order — exactly the
    order [Ir.to_program] registers static tags in. *)

val optimize : ?passes:Passes.pass list -> ?verify:bool -> Ir.t -> Ir.t
(** Apply the pass list (default {!default_passes}) with inter-pass
    verification (default [true]). *)

val optimize_with_report :
  ?passes:Passes.pass list -> ?verify:bool -> Ir.t -> Ir.t * pass_stat list
(** {!optimize}, also returning per-pass static size deltas for
    [ftb ir --dump --pass-stats]. *)

val to_program : ?passes:Passes.pass list -> ?verify:bool -> Ir.t -> Ftb_trace.Program.t
(** [optimize] followed by [Ir.to_program], with the dependent-cone
    capability ({!Cone.plan}, built lazily on first use behind a mutex —
    safe to force from multiple domains) attached. One plan is retained
    process-wide: the plan forced last stays cached, and forcing another
    program's plan drops it, so a long-lived process holds at most one
    plan besides those its running campaigns fetched.

    This assumes one campaign program at a time per process, which holds
    for the daemon (its scheduler runs one job at a time), the CLI and
    the study drivers. The executor fetches the plan on every
    [Executor.range_into_model] call, i.e. once per engine or
    fleet shard, so two campaigns on different programs interleaved in
    one process would rebuild each other's plan on nearly every shard,
    under the global lock: correct bytes, but each rebuild costs a full
    cone analysis.

    This is the constructor the kernel suite uses: batched campaigns on the
    result take the cone fast path wherever the analysis is exact and
    fall back to prefix-snapshot replay elsewhere, byte-identical either
    way. *)
