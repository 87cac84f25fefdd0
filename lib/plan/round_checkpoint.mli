(** Durable state of an adaptive campaign: an append-only round log.

    The distributed planner writes the campaign header once, then appends
    two CRC-framed records per round: right after drawing the round's
    cases, a draw record (the cases, and the RNG state *after* the draw);
    right after folding the executed round, a round record holding that
    round's samples alone (the bit-exact {!Ftb_inject.Sample_codec} blob).
    A finished campaign appends a stop record, so re-submitting a
    completed job replays the result without sampling. What a round
    writes is proportional to that round's work, never to the campaign so
    far.

    Crash semantics. A SIGKILL mid-append leaves a torn final record,
    which {!load} drops: a lost draw is re-drawn from the RNG state before
    it, a lost round is re-executed from its logged draw, and a lost stop
    record is re-derived from the last round by the stop rule
    ({!Ftb_core.Adaptive.round_verdict}). All three are deterministic, so
    a killed-and-restarted campaign stays bit-identical to an undisturbed
    one. Any other defect (a checksum mismatch, records out of order)
    raises {!Ftb_inject.Persist.Format_error}, and callers quarantine and
    restart cold.

    {!save} writes a whole campaign state as a compacted log, atomically
    (temp + rename, as everywhere in {!Ftb_inject.Persist}). The log is
    the only format {!load} reads: the v1 enveloped text snapshot
    ([ftb-adaptive-v1]) and anything else is a
    {!Ftb_inject.Persist.Format_error} naming the unsupported magic, on
    which {!Adaptive_engine} quarantines the file and restarts cold. *)

type t = {
  name : string;  (** program name (space-free token) *)
  sites : int;
  spec : Ftb_inject.Models.spec;
  fuel : int option;
  fingerprint : string;  (** golden-trace fingerprint *)
  config : Ftb_core.Adaptive.config;
  seed : int;
  rng_state : int64;  (** campaign RNG after the last completed draw *)
  rounds : int;  (** rounds folded so far *)
  samples : Ftb_inject.Sample_run.t array;  (** accumulated, draw order *)
  pending : int array option;  (** drawn but not yet folded round *)
  stop : Ftb_core.Adaptive.stop_reason option;  (** set on the final checkpoint *)
}

val save : path:string -> t -> unit
(** Atomically write [t] as a log: header, then the pending draw and the
    stop record when set. Raises [Invalid_argument] when [name] is not a
    space-free token. *)

val load : path:string -> t
(** Replay a log. Raises
    {!Ftb_inject.Persist.Format_error} on corruption or any structural
    defect (callers quarantine and restart cold): a sample whose case or
    propagation site lies outside the campaign's space, and a samples
    blob of the retired dense layout ([ftbS1], named in the message),
    included. *)

(** {1 Appending} *)

type log
(** A log open for appending. Each append is one framed record, flushed
    before it returns. *)

val open_log : path:string -> t -> log
(** {!save} [t] (compacting whatever the file held), then open it for
    appending. *)

val append_draw : log -> rng_state:int64 -> int array -> unit
(** Record a drawn round: its cases, and the RNG state after the draw. *)

val append_round : log -> Ftb_inject.Sample_run.t array -> unit
(** Record the folded round: the samples of the pending draw, aligned
    with its cases. *)

val append_stop : log -> Ftb_core.Adaptive.stop_reason -> unit
(** Close the campaign; nothing may be appended after it. *)

val close_log : log -> unit
