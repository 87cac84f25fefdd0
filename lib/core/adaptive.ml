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
  mutable samples : Sample_run.t array;  (* draw order; replaced, never mutated *)
  boundary : Boundary.accumulator;
  info : float array;  (* S_i, the bias term, updated per folded sample *)
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
    boundary = Boundary.accumulator ~filter:config.filter ~sites;
    info = Array.make sites 0.;
    rounds = 0;
  }

let is_sampled state case =
  Char.code (Bytes.unsafe_get state.sampled (case lsr 3)) land (1 lsl (case land 7)) <> 0

let mark_sampled state case =
  let i = case lsr 3 in
  Bytes.set state.sampled i
    (Char.chr (Char.code (Bytes.get state.sampled i) lor (1 lsl (case land 7))))

(* Add freshly executed samples (their cases already marked): extend the
   draw-order array, the information and the boundary. The boundary
   accumulator re-derives only the sites whose SDC floor the batch lowered
   (the filter operation can retroactively disqualify earlier
   propagation data there), so a fold costs its batch, not the campaign
   so far, and still equals [Boundary.infer] over every sample. *)
let absorb state samples =
  Array.iter (Info.add_total state.golden state.info) samples;
  state.samples <- Array.append state.samples samples;
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
let state_sample_count state = Array.length state.samples
let state_total state = state.total
let state_boundary state = Boundary.accumulated state.boundary
let state_samples state = state.samples

let plan_round state rng =
  (* Candidate pool, in ascending case order: unsampled cases the current
     boundary does not already predict masked — injecting those would
     teach us nothing new about the boundary's upper side. *)
  let width = state.width in
  let pool = Array.make state.total 0 in
  let count = ref 0 in
  let boundary = Boundary.accumulated state.boundary in
  for site = 0 to (state.total / width) - 1 do
    let threshold = Boundary.threshold boundary site in
    for case = site * width to ((site + 1) * width) - 1 do
      if (not (is_sampled state case)) && not (state.errors.(case) <= threshold) then begin
        pool.(!count) <- case;
        incr count
      end
    done
  done;
  if !count = 0 then None
  else begin
    let pool = Array.sub pool 0 !count in
    let k = min state.round_size !count in
    let drawn_indices =
      if state.config.bias then begin
        let weights =
          Array.map (fun case -> 1. /. Float.max state.info.(case / width) 1.) pool
        in
        Ftb_util.Sampling.weighted_without_replacement rng ~weights ~k
      end
      else Ftb_util.Sampling.uniform rng ~n:!count ~k
    in
    Some (Array.map (fun idx -> pool.(idx)) drawn_indices)
  end

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
    samples = state.samples;
    rounds = state.rounds;
    sample_fraction = float_of_int (Array.length state.samples) /. float_of_int state.total;
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
