(** The campaign executor: the one path every exhaustive campaign takes.

    A campaign is one contained run per (dynamic instruction, corruption)
    case. The corruption is a parameter, {!Models.spec}: the paper's
    bit-flip-64 model ({!Models.default_spec}) is one discrete model among
    several, and runs through exactly the same code as the others.

    Per site, the executor picks the fastest tier the program and model
    allow, and falls back tier by tier:
    + {b cone replay} — programs built by [Ftb_ir.Pipeline.to_program]
      carry a cone plan ({!Ftb_trace.Program.cone}): per site, the
      precomputed forward slice of the site's event through the golden
      dataflow. Where the plan is exact (the cone stays off float
      branches), one lane-runner call classifies all of a site's cases
      by recomputing only the cone members, over all lanes at once,
      against recorded golden operands — no prefix, no suffix, no output
      materialization. It runs whenever [fuel] is unset or at least the
      golden site count: a covered case follows the golden control path
      and records at most that many dynamic instructions, so the fuel
      watchdog (which fires on record [fuel + 1]) cannot fire inside it.
      The daemon's default budget qualifies. A lane batch that raises
      hands its site to the next tier.
    + {b prefix-snapshot batching} — the cases of one site share an
      identical injection-free prefix. For programs with the [resumable]
      capability (the compiled IR machine) the executor runs that prefix
      once under a counting context, snapshots the interpreter at the
      injection point, and replays only the suffix per case:
      O(sites × (prefix + width × suffix)) instead of
      O(width × sites × run).
    + {b per-case} — one full contained run per case
      ({!Ground_truth.case_byte_model}): closure kernels and ragged
      shard edges.

    Every model takes the same tiers: a corruption is a pure function of
    the golden value and the dense case (the stochastic random-value
    model derives its draw from (seed, case)), so the cases of a site
    share the injection-free prefix whatever the model.

    The plan is fetched once per call and held for its duration. The
    cone-free reference (differential tests, benchmarking the tiers
    against each other) is a golden run of the same program without its
    cone capability, [Golden.run { program with Program.cone = None }]:
    the same trace, so the same fingerprint and case space, with every
    site on the tiers below.

    Correctness bar: outcome bytes are bit-identical to the serial
    per-case oracle ({!Ground_truth.run} for bit-flip-64, a loop of
    {!Ground_truth.case_byte_model} for any model) — the snapshot carries
    the exact context position and remaining fuel, the replay uses the
    same classification path
    ({!Ftb_trace.Runner.outcome_of_run_contained}), and cone replay
    reproduces guard crashes and norm classification exactly; below the
    golden site count of fuel the cone tier steps aside, since only real
    replay counts steps. A prefix crash (the fuel watchdog firing before
    the injection point) is replicated to every case of the site — each
    would follow the identical path to the identical crash. *)

val cone_plan : ?fuel:int -> Ftb_trace.Golden.t -> Ftb_trace.Program.cone_plan option
(** The cone plan a run under [fuel] may use: the program's plan when it
    has one that covers this golden run's site space, and [fuel] is unset
    or at least the golden site count; [None] otherwise. Forces the plan
    ({!Ftb_trace.Program.cone}). The gate of both cone tiers: the
    executor's lane replay and {!Sample_run}'s traced one-lane scan. *)

val range_into_model :
  ?fuel:int ->
  Models.spec ->
  Ftb_trace.Golden.t ->
  lo:int ->
  hi:int ->
  Bytes.t ->
  off:int ->
  unit
(** [range_into_model spec golden ~lo ~hi buf ~off] computes outcome
    bytes for the dense case range [lo, hi) of the model's case space
    ([sites * spec_width]) into [buf] starting at [off] (case [c] lands at
    [off + c - lo]). Whole sites inside the range take the tiers above;
    ragged edges at non-site-aligned bounds (shard boundaries) run
    per-case. The campaign engine's, the fleet worker's and the section
    cache's shard runner. Raises [Invalid_argument] when the range is out
    of bounds or the buffer slice does not fit. *)

val ground_truth_model :
  ?pool:Parallel.Pool.t ->
  ?domains:int ->
  ?fuel:int ->
  Models.spec ->
  Ftb_trace.Golden.t ->
  Ground_truth.t
(** Exhaustive campaign over the model's full case space: sites are
    work-stolen off the domain pool in the pool's default chunks when a
    cone plan runs them (a cone-tier site costs about as much as claiming
    it), one at a time otherwise ([pool] defaults to
    {!Parallel.Pool.global}, [domains] to {!Parallel.default_domains};
    [domains:1] without an explicit pool runs serially on the calling
    domain). The result's byte width is the model's [spec_width]. Outcome
    bytes are bit-identical for every pool width, with or without a cone plan.
    Raises [Invalid_argument] when [domains <= 0]. *)
