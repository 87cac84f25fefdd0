(** Instrumented programs.

    A program packages a kernel body that runs under a {!Ctx.t} together
    with its acceptance tolerance [T] — the largest L∞ deviation of the
    final output that the domain user still accepts (§2.1). The same body
    runs in golden, outcome-only and propagation modes. *)

type prefix_outcome =
  | Completed of float array
      (** the program finished before reaching the requested record count *)
  | Paused of (Ctx.t -> float array)
      (** a suspended execution: the captured interpreter snapshot can be
          replayed to completion any number of times, each replay under a
          fresh context and against a fresh copy of the saved state *)

(** Outcome of a dependent-cone replay, mirroring the classification of a
    full run: the L∞ output deviation against tolerance, or a crash. *)
type cone_outcome = Cone_masked | Cone_sdc | Cone_crash of Ctx.crash_reason

type cone_plan = {
  cone_sites : int;
      (** number of injection sites the plan covers — must equal the
          golden site count or the executor discards the plan *)
  cone_case : site:int -> ((float -> float) -> cone_outcome) option;
      (** [cone_case ~site] is the one-lane form of [cone_lanes]: the
          returned closure takes one corruption function and classifies
          that single case. [None] exactly when [cone_lanes ~site] is. *)
  cone_lanes : site:int -> ((int -> float -> float) -> cone_outcome array -> unit) option;
      (** [cone_lanes ~site] specializes the program to injection site
          [site]. The returned lane runner [run corrupt out] classifies
          [Array.length out] cases of the site at once: lane [l]'s seed
          is [corrupt l golden_value], and its outcome lands in [out.(l)].
          It walks the site's dependent cone (forward slice) once and
          replays every member over all lanes against precomputed golden
          operands — no prefix, no suffix, no output copy. [None] when the
          site's cone feeds a float branch (the corrupted run could leave
          the golden control path) or the site is out of range; the caller
          must fall back to full or prefix-snapshot replay.

          Lifetime and domain: a runner holds no mutable state of its own
          and lives as long as the plan; it may be called from any domain,
          and from several at once. Each call borrows the calling domain's
          replay scratch (shared by all plans, sized by the largest plan
          and a fixed lane-row budget) and restores it before returning,
          also when [corrupt] raises — so [corrupt] must not itself run a
          cone replay. A covered case records exactly the golden number of
          dynamic instructions, or fewer when a guard crashes it, so the
          outcome equals full replay under any fuel of at least the golden
          site count. *)
  cone_trace : site:int -> ((float -> float) -> cone_outcome * (int array * float array)) option;
      (** [cone_trace ~site] is the traced one-lane form: the returned
          closure takes one corruption function and returns the case's
          outcome together with its propagation, the pairs
          [(sites, deviations)] of every dynamic instruction [j] whose
          deviation [|golden_j - faulty_j|] (NaN read as [infinity]) is
          not zero, in ascending site order. Coverage is that of a traced
          full run: every site, or the sites before the crashing guard.
          It scans the events after the seed once, recomputing only those
          that read a changed value, so it costs the events between the
          seed and the last consumer of a changed value, not the
          program. [None] where [cone_lanes ~site] is, and for every
          site when a golden value of the plan is not finite. The fuel,
          lifetime and domain rules of [cone_lanes] apply; the scan
          borrows its own domain-local scratch. *)
}
(** A site-suffix specializer: per-site dependent-cone replay. *)

type t = {
  name : string;  (** short identifier, e.g. ["cg"] *)
  description : string;  (** one-line description for reports *)
  tolerance : float;  (** acceptance threshold [T] on the L∞ output error *)
  statics : Static.table;  (** static instructions of the body *)
  body : Ctx.t -> float array;  (** the instrumented kernel *)
  resumable : (Ctx.t -> stop_at:int -> prefix_outcome) option;
      (** prefix-snapshot capability: [run ctx ~stop_at] executes the body
          under [ctx] until it is about to record dynamic instruction
          [stop_at], then snapshots the interpreter state and pauses.
          Backs the batched campaign executor, which runs the shared prefix
          of a site's cases once. [None] for a program built directly
          with {!make} around a hand-written body (the test oracles and
          fixtures), which the executor transparently re-runs in full;
          every suite program carries it. *)
  cone : (unit -> cone_plan option) option;
      (** dependent-cone capability: forces the cone analysis, built
          lazily on first use and retained while this is the program
          whose plan was forced last ([Ftb_ir.Pipeline.to_program] keeps
          one plan per process, which assumes one campaign program at a
          time: forcing another program's plan drops this one, and the
          next force rebuilds it). [None] when the program carries no
          analysis; [Some force] where [force ()] is [None] when the
          analysis failed and the executor must ignore the capability.
          Outcomes produced through a plan must be bit-identical to full
          replay. *)
}

val make :
  ?resumable:(Ctx.t -> stop_at:int -> prefix_outcome) ->
  ?cone:(unit -> cone_plan option) ->
  name:string ->
  description:string ->
  tolerance:float ->
  statics:Static.table ->
  (Ctx.t -> float array) ->
  t
(** Checked constructor: [tolerance] must be positive and finite.
    [resumable] is the optional prefix-snapshot capability; a paused
    execution's replays must be bit-identical to running the body in full
    under an equivalently positioned context. *)

val with_cone : t -> (unit -> cone_plan option) -> t
(** Functional copy with the dependent-cone capability attached. *)
