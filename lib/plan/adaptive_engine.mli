(** Resumable, pluggably-executed driver of the adaptive round machine.

    Decomposes each §3.4 round into plan → execute → fold, where the
    execute step is an injected [exec] function: the serial default runs
    the drawn cases in-process (the CLI's and the daemon's executor), and
    any other [exec] — a test's reordering one, a harness's timing shim —
    produces the same bytes: outcomes are pure functions of (golden,
    model, case), and the RNG is consumed only by the planner.

    With a [checkpoint] path the driver is kill-safe at round
    granularity: it keeps a {!Round_checkpoint} log, writing the campaign
    so far once and then appending every draw (the pending round) and
    every folded round, so a SIGKILL resumes at the same round with the
    same drawn cases and the campaign finishes bit-identical to an
    undisturbed run. A round's appends cost that round's samples, not
    the campaign's. A checkpoint from a different campaign identity
    (kernel, fingerprint, model, config, fuel or seed differ) is ignored;
    a corrupt one is quarantined; a finished one short-circuits the whole
    run. *)

exception Cancelled
(** Raised when [cancel] reports true at a round edge — after the current
    state (including any pending draw) is durably checkpointed, so the
    next run resumes exactly here. *)

type exec = round:int -> cases:int array -> Ftb_inject.Sample_run.t array
(** Execute one round: return [samples] aligned index-for-index with
    [cases] (the planner's draw order). Must be a pure function of
    (golden, model, case) — where the cases run must not matter. *)

type stats = {
  fresh_samples : int;  (** samples actually executed by this run *)
  resumed_samples : int;  (** samples inherited from the checkpoint *)
  resumed_rounds : int;  (** rounds inherited from the checkpoint *)
}

val run :
  ?config:Ftb_core.Adaptive.config ->
  ?spec:Ftb_inject.Models.spec ->
  ?fuel:int ->
  ?checkpoint:string ->
  ?exec:exec ->
  ?on_round:(round:int -> drawn:int -> masked:int -> sdc:int -> crash:int -> unit) ->
  ?cancel:(unit -> bool) ->
  name:string ->
  seed:int ->
  Ftb_trace.Golden.t ->
  Ftb_core.Adaptive.result * stats
(** Run (or resume) the adaptive campaign. The result is bit-identical to
    [Adaptive.run_model] with the same config, spec, fuel and seed,
    regardless of checkpoint interruptions or which [exec] ran the
    rounds. [name] is the kernel name recorded in checkpoints (space-free
    token). *)
