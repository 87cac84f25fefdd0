(** Adaptive / progressive sampling (§3.4).

    Instead of drawing one batch uniformly, the sampler works in rounds of
    [round_fraction] of the sample space. Before each round the current
    boundary filters the candidate pool — cases it already predicts masked
    are not worth injecting — and the remaining candidates are drawn with
    probability [p_i ∝ 1 / max(S_i, 1)], biasing towards sites with little
    information. Sampling stops when a round's fresh samples are almost all
    SDC ([stop_sdc_fraction]), when the candidate pool empties, or at the
    round cap.

    The module is structured as an explicit round state machine
    ({!state}, {!plan_round}, {!fold_round}, {!finish}) so the serial
    driver ({!run}) and the distributed planner ([Ftb_plan]) share one
    implementation of the paper's loop. The RNG is consumed by nothing
    but {!plan_round}, and sample outcomes are pure functions of
    (golden, model, case) — together these make a distributed round
    bit-identical to the serial one regardless of where cases execute. *)

type config = {
  round_fraction : float;  (** fraction of the space drawn per round (paper: 0.001) *)
  stop_sdc_fraction : float;  (** stop when ≥ this fraction of a round is SDC (paper: 0.95) *)
  max_rounds : int;  (** safety cap *)
  filter : bool;  (** apply the §3.5 filter operation when building boundaries *)
  bias : bool;  (** bias candidate selection by inverse information (off = uniform) *)
}

val default_config : config
(** 0.1 % rounds, 95 % stop criterion, 200 round cap, filter on, bias on. *)

val check_config : config -> unit
(** Validate ranges; raises [Invalid_argument] (the usage-error text every
    entry point shares). *)

type stop_reason = Converged | Pool_exhausted | Round_cap

val stop_reason_to_string : stop_reason -> string
(** ["converged"], ["pool-exhausted"], ["round-cap"] — the token used by
    checkpoints, the boundary store and the CLI. *)

val stop_reason_of_string : string -> stop_reason option

type result = {
  boundary : Boundary.t;  (** the final approximated fault tolerance boundary *)
  samples : Ftb_inject.Sample_run.t array;  (** every sample drawn, in draw order *)
  rounds : int;
  sample_fraction : float;  (** |samples| / |complete sample space| *)
  stop_reason : stop_reason;
}

val run :
  ?config:config ->
  ?on_round:(round:int -> drawn:int -> masked:int -> sdc:int -> crash:int -> unit) ->
  Ftb_util.Rng.t ->
  Ftb_trace.Golden.t ->
  result
(** Run the progressive campaign against a program's golden run — the
    serial oracle every other execution path must match byte for byte. *)

val run_model :
  ?config:config ->
  ?on_round:(round:int -> drawn:int -> masked:int -> sdc:int -> crash:int -> unit) ->
  ?spec:Ftb_inject.Models.spec ->
  ?fuel:int ->
  Ftb_util.Rng.t ->
  Ftb_trace.Golden.t ->
  result
(** {!run} generalized to an arbitrary fault model and an optional fuel
    watchdog. With the default spec and no fuel this is exactly {!run}. *)

(** {1 The round state machine}

    One round is [plan_round] (draw the biased candidate set — the only
    RNG consumer) followed by executing the drawn cases anywhere
    ({!Ftb_inject.Sample_run.run_case_model} is the unit of work) and
    [fold_round] (tally, update information, rebuild the boundary, decide
    whether to stop). Drivers checkpoint between [plan_round] and
    [fold_round] by recording the RNG state and the drawn cases, and
    after [fold_round] by recording the round's samples.

    A round costs its own work: each case's injected error is computed
    once, in {!state_create}, the information is updated per folded
    sample, and the boundary incrementally ({!Boundary.accumulator}), so it
    equals {!Boundary.infer} over every sample so far, bit for bit. A
    plan streams the candidates into {!Ftb_util.Sampling.reservoir} and
    allocates O(round size), whatever the size of the case space. *)

type state
(** Mutable campaign state: sampled set, accumulated samples (draw
    order), current boundary, per-site information, rounds folded. *)

val state_create :
  ?config:config -> ?spec:Ftb_inject.Models.spec -> Ftb_trace.Golden.t -> state
(** Fresh state before round 1: computes the injected error of every
    case of the model's space. Raises [Invalid_argument] on a bad
    config. *)

val state_restore :
  ?config:config ->
  ?spec:Ftb_inject.Models.spec ->
  Ftb_trace.Golden.t ->
  rounds:int ->
  Ftb_inject.Sample_run.t array ->
  state
(** Rebuild the state a driver had after folding [rounds] rounds whose
    accumulated samples (draw order) are given — the checkpoint-resume
    path. The boundary and information are re-inferred from the samples,
    so the restored state is indistinguishable from the original. *)

val plan_round : state -> Ftb_util.Rng.t -> int array option
(** Draw the next round's cases (dense case indices, in draw order).
    [None] when the candidate pool is empty ([Pool_exhausted]). Advances
    the RNG; nothing else in the machine does. *)

val fold_round :
  ?on_round:(round:int -> drawn:int -> masked:int -> sdc:int -> crash:int -> unit) ->
  state ->
  cases:int array ->
  samples:Ftb_inject.Sample_run.t array ->
  [ `Stop of stop_reason | `Continue ]
(** Fold one executed round: [samples.(i)] is the result of running
    [cases.(i)] (the array {!plan_round} returned, same order). Tallies,
    reports [on_round], rebuilds the boundary and information, and
    decides: [`Stop Converged] on the §3.4 criterion, [`Stop Round_cap]
    at the cap, [`Continue] otherwise. Raises [Invalid_argument] on a
    length mismatch or an empty round. *)

val round_verdict :
  config -> rounds:int -> Ftb_inject.Sample_run.t array -> [ `Stop of stop_reason | `Continue ]
(** The stop rule {!fold_round} applies to a folded round: [samples] are
    that round's alone and [rounds] counts it. A checkpoint that recorded
    a round but lost the stop record after it uses this to close the
    campaign the way the fold did. *)

val finish : state -> stop_reason -> result
(** Package the final state. *)

val state_rounds : state -> int
val state_sample_count : state -> int
val state_total : state -> int
(** Size of the model's complete sample space. *)

val state_boundary : state -> Boundary.t
(** The boundary inferred from everything folded so far. The state's
    own, updated in place by later folds: copy it to keep a snapshot. *)

val state_samples : state -> Ftb_inject.Sample_run.t array
(** Accumulated samples in draw order, as a fresh array (the state grows
    its own by doubling). *)
