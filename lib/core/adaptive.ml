module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Sample_run = Ftb_inject.Sample_run

type config = {
  round_fraction : float;
  stop_sdc_fraction : float;
  max_rounds : int;
  filter : bool;
  bias : bool;
}

let default_config =
  { round_fraction = 0.001; stop_sdc_fraction = 0.95; max_rounds = 200; filter = true; bias = true }

type stop_reason = Converged | Pool_exhausted | Round_cap

let stop_reason_to_string = function
  | Converged -> "converged"
  | Pool_exhausted -> "pool-exhausted"
  | Round_cap -> "round-cap"

let stop_reason_of_string = function
  | "converged" -> Some Converged
  | "pool-exhausted" -> Some Pool_exhausted
  | "round-cap" -> Some Round_cap
  | _ -> None

type result = {
  boundary : Boundary.t;
  samples : Sample_run.t array;
  rounds : int;
  sample_fraction : float;
  stop_reason : stop_reason;
}

let check_config config =
  if not (config.round_fraction > 0. && config.round_fraction <= 1.) then
    invalid_arg "Adaptive.run: round_fraction must be in (0, 1]";
  if not (config.stop_sdc_fraction > 0. && config.stop_sdc_fraction <= 1.) then
    invalid_arg "Adaptive.run: stop_sdc_fraction must be in (0, 1]";
  if config.max_rounds <= 0 then invalid_arg "Adaptive.run: max_rounds must be positive"

(* The round state machine. [run] below is a thin serial driver over it;
   the distributed planner ([Ftb_plan.Adaptive_engine]) drives the same
   machine with fleet-executed rounds. Keeping plan and fold here — and
   the RNG consumed by nothing but [plan_round] — is what makes the
   distributed path bit-identical to the serial oracle: outcomes are pure
   functions of (golden, spec, case), so *where* a case runs cannot
   change what the next round draws. *)

type state = {
  config : config;
  spec : Models.spec;
  golden : Golden.t;
  total : int;
  width : int;
  round_size : int;
  errors : float array;  (* injected error per dense case, computed once *)
  sampled : Bytes.t;  (* bitmap over dense cases *)
  mutable samples : Sample_run.t array;  (* draw order: the first [count], grown by doubling *)
  mutable count : int;
  boundary : Boundary.accumulator;
  info : float array;  (* S_i, the bias term, updated per folded sample *)
  floors : float array;  (* per-site significance floors of [info] *)
  weights : float array;  (* 1 / max S_i 1 per site, refreshed by each plan *)
  run : int array;  (* one site's candidates, while a plan scans *)
  mutable rounds : int;
}

let state_create ?(config = default_config) ?(spec = Models.default_spec) golden =
  check_config config;
  let sites = Golden.sites golden in
  let total = Models.total_cases spec ~sites in
  let round_size =
    max 1 (int_of_float (Float.ceil (config.round_fraction *. float_of_int total)))
  in
  {
    config;
    spec;
    golden;
    total;
    width = Models.spec_width spec;
    round_size;
    errors = Array.init total (fun case -> Ground_truth.injected_error_model spec golden ~case);
    sampled = Bytes.make ((total + 7) / 8) '\000';
    samples = [||];
    count = 0;
    boundary = Boundary.accumulator ~filter:config.filter ~sites;
    info = Array.make sites 0.;
    floors = Info.significance_floors golden;
    weights = Array.make sites 1.;
    run = Array.make (Models.spec_width spec) 0;
    rounds = 0;
  }

(* 1 when [case] is sampled, else 0. *)
let[@inline] sampled_bit state case =
  (Char.code (Bytes.unsafe_get state.sampled (case lsr 3)) lsr (case land 7)) land 1

let mark_sampled state case =
  let i = case lsr 3 in
  Bytes.set state.sampled i
    (Char.chr (Char.code (Bytes.get state.sampled i) lor (1 lsl (case land 7))))

(* Add freshly executed samples (their cases already marked): extend the
   draw-order samples, the information and the boundary. The boundary
   accumulator re-derives only the sites whose SDC floor the batch lowered
   (the filter operation can retroactively disqualify earlier
   propagation data there), so a fold costs its batch, not the campaign
   so far, and still equals [Boundary.infer] over every sample. *)
let absorb state samples =
  let n = Array.length samples in
  Array.iter (Info.add_total ~floors:state.floors state.info) samples;
  if state.count + n > Array.length state.samples then begin
    let grown = Array.make (max (2 * Array.length state.samples) (state.count + n)) samples.(0) in
    Array.blit state.samples 0 grown 0 state.count;
    state.samples <- grown
  end;
  Array.blit samples 0 state.samples state.count n;
  state.count <- state.count + n;
  Boundary.accumulate state.boundary samples

let state_restore ?config ?spec golden ~rounds samples =
  let state = state_create ?config ?spec golden in
  Array.iter
    (fun (s : Sample_run.t) ->
      let fault = s.Sample_run.fault in
      mark_sampled state ((fault.Fault.site * state.width) + fault.Fault.bit))
    samples;
  if Array.length samples > 0 then absorb state samples;
  state.rounds <- rounds;
  state

let state_rounds state = state.rounds
let state_sample_count state = state.count
let state_total state = state.total
let state_boundary state = Boundary.accumulated state.boundary
let state_samples state = Array.sub state.samples 0 state.count

(* Candidates, in ascending case order: unsampled cases the current
   boundary does not already predict masked — injecting those would teach
   us nothing new about the boundary's upper side. No array of them is
   built: [f site run n] sees one site's candidates at a time, in [run]'s
   first [n] slots (a buffer reused for every site). The biased draw
   offers each run to a reservoir; the uniform one counts them, draws
   ordinals, and maps those to cases in a second scan. Either way a plan
   allocates O(round size), whatever the space's size. *)
let iter_candidates state f =
  let width = state.width in
  let thresholds = (Boundary.accumulated state.boundary).Boundary.thresholds in
  let run = state.run in
  for site = 0 to (state.total / width) - 1 do
    let threshold = thresholds.(site) and n = ref 0 in
    for case = site * width to ((site + 1) * width) - 1 do
      (* Without a branch: whether a case is a candidate is as good as a
         coin flip to the branch predictor, and most cases are scanned,
         not candidates. [run.(!n)] is overwritten until one is. *)
      let masked = Bool.to_int (state.errors.(case) <= threshold) in
      run.(!n) <- case;
      n := !n + (1 - (sampled_bit state case lor masked))
    done;
    if !n > 0 then f site run !n
  done

let plan_biased state rng =
  (* The paper's weight, p ∝ 1 / max(S_i, 1), is constant over a site's
     cases: the reservoir reads it per site from [weights]. *)
  let weights = state.weights in
  for site = 0 to Array.length weights - 1 do
    let s = state.info.(site) in
    weights.(site) <- 1. /. if s >= 1. || s <> s then s else 1. (* Float.max s 1. *)
  done;
  let r = Ftb_util.Sampling.reservoir ~k:state.round_size ~weights in
  iter_candidates state (fun site run len -> Ftb_util.Sampling.offer r rng ~group:site run ~len);
  match Ftb_util.Sampling.drawn r with [||] -> None | cases -> Some cases

let plan_uniform state rng =
  let count = ref 0 in
  iter_candidates state (fun _ _ n -> count := !count + n);
  if !count = 0 then None
  else begin
    let k = min state.round_size !count in
    let ordinals = Ftb_util.Sampling.uniform rng ~n:!count ~k in
    (* Draw order is kept: [by_ordinal] visits the draws in candidate
       order, and each lands at its own position. *)
    let by_ordinal = Array.init k Fun.id in
    Array.sort (fun a b -> compare ordinals.(a) ordinals.(b)) by_ordinal;
    let cases = Array.make k 0 in
    let ordinal = ref 0 and next = ref 0 in
    iter_candidates state (fun _ run n ->
        for i = 0 to n - 1 do
          if !next < k && ordinals.(by_ordinal.(!next)) = !ordinal then begin
            cases.(by_ordinal.(!next)) <- run.(i);
            incr next
          end;
          incr ordinal
        done);
    Some cases
  end

let plan_round state rng =
  if state.config.bias then plan_biased state rng else plan_uniform state rng

let round_verdict config ~rounds samples =
  let masked, sdc, _ = Sample_run.count_outcomes samples in
  let sdc_fraction = float_of_int sdc /. float_of_int (Array.length samples) in
  if masked = 0 || sdc_fraction >= config.stop_sdc_fraction then `Stop Converged
  else if rounds >= config.max_rounds then `Stop Round_cap
  else `Continue

let fold_round ?on_round state ~cases ~samples =
  let k = Array.length cases in
  if Array.length samples <> k then
    invalid_arg
      (Printf.sprintf "Adaptive.fold_round: %d samples for %d drawn cases"
         (Array.length samples) k);
  if k = 0 then invalid_arg "Adaptive.fold_round: empty round";
  Array.iter (mark_sampled state) cases;
  state.rounds <- state.rounds + 1;
  (match on_round with
  | Some f ->
      let masked, sdc, crash = Sample_run.count_outcomes samples in
      f ~round:state.rounds ~drawn:k ~masked ~sdc ~crash
  | None -> ());
  absorb state samples;
  round_verdict state.config ~rounds:state.rounds samples

let finish state stop_reason =
  {
    boundary = Boundary.accumulated state.boundary;
    samples = state_samples state;
    rounds = state.rounds;
    sample_fraction = float_of_int state.count /. float_of_int state.total;
    stop_reason;
  }

let run_model ?(config = default_config) ?on_round ?(spec = Models.default_spec) ?fuel rng
    golden =
  let state = state_create ~config ~spec golden in
  let stop = ref Round_cap in
  (try
     while state.rounds < config.max_rounds do
       match plan_round state rng with
       | None ->
           stop := Pool_exhausted;
           raise Exit
       | Some cases -> (
           let samples = Array.map (Sample_run.run_case_model ?fuel spec golden) cases in
           match fold_round ?on_round state ~cases ~samples with
           | `Stop reason ->
               stop := reason;
               raise Exit
           | `Continue -> ())
     done
   with Exit -> ());
  finish state !stop

let run ?config ?on_round rng golden = run_model ?config ?on_round rng golden
