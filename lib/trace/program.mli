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
      (** [cone_case ~site] specializes the program to injection site
          [site]: the returned closure takes the corruption function,
          replays only the site's dependent cone (forward slice) against
          precomputed golden values, and classifies the outcome — no
          prefix, no suffix, no output copy. [None] when the site's cone is
          imprecise (feeds a float branch, or too large to pay off); the
          caller must fall back to full or prefix-snapshot replay. The
          closure is single-threaded (it reuses scratch buffers); obtain
          one per domain. *)
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
          of a site's cases once. [None] for closure kernels, which
          the executor transparently re-runs in full. *)
  cone : (unit -> cone_plan option) option;
      (** dependent-cone capability: forces the (lazily built, memoized)
          cone analysis. [None] when the program carries no analysis;
          [Some force] where [force ()] is [None] when the analysis failed
          and the executor must ignore the capability. Outcomes produced
          through a plan must be bit-identical to full replay. *)
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
