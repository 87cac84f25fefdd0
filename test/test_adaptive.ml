module Adaptive = Ftb_core.Adaptive
module Boundary = Ftb_core.Boundary
module Predict = Ftb_core.Predict
module Ground_truth = Ftb_inject.Ground_truth
module Golden = Ftb_trace.Golden
module Rng = Ftb_util.Rng
module Info = Ftb_core.Info
module Models = Ftb_inject.Models
module Sample_run = Ftb_inject.Sample_run
module Fault = Ftb_trace.Fault

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let small_config =
  { Adaptive.default_config with Adaptive.round_fraction = 0.02; max_rounds = 50 }

let test_runs_and_terminates () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:1) g in
  Alcotest.(check bool) "some samples drawn" true (Array.length r.Adaptive.samples > 0);
  Alcotest.(check bool) "fraction in (0,1]" true
    (r.Adaptive.sample_fraction > 0. && r.Adaptive.sample_fraction <= 1.);
  Alcotest.(check bool) "rounds positive" true (r.Adaptive.rounds > 0)

let test_no_duplicate_samples () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:2) g in
  let module S = Set.Make (Int) in
  let cases =
    Array.to_list (Array.map (fun s -> Ftb_trace.Fault.to_case s.Ftb_inject.Sample_run.fault) r.Adaptive.samples)
  in
  Alcotest.(check int) "all samples distinct" (List.length cases)
    (S.cardinal (S.of_list cases))

let test_sample_count_matches_fraction () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:3) g in
  Helpers.check_close ~eps:1e-12 "fraction consistent with count"
    (float_of_int (Array.length r.Adaptive.samples) /. float_of_int (Golden.cases g))
    r.Adaptive.sample_fraction

let test_prediction_close_to_truth_on_monotone_program () =
  let g = Lazy.force golden in
  let t = Ground_truth.run g in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:4) g in
  let obs = Predict.observations_of_samples r.Adaptive.samples in
  let predicted =
    Predict.overall_sdc_ratio ~policy:Predict.Observed_all ~observations:obs
      r.Adaptive.boundary g
  in
  let truth = Ground_truth.sdc_ratio t in
  Alcotest.(check bool)
    (Printf.sprintf "prediction %.3f within 0.1 of truth %.3f" predicted truth)
    true
    (abs_float (predicted -. truth) < 0.1)

let test_uses_fewer_samples_than_exhaustive () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:5) g in
  Alcotest.(check bool) "adaptive needs a strict subset of the space" true
    (r.Adaptive.sample_fraction < 1.)

let test_invalid_configs () =
  let g = Lazy.force golden in
  let bad fraction = { small_config with Adaptive.round_fraction = fraction } in
  (match Adaptive.run ~config:(bad 0.) (Rng.create ~seed:6) g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "round_fraction 0 accepted");
  (match Adaptive.run ~config:(bad 1.5) (Rng.create ~seed:6) g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "round_fraction > 1 accepted");
  match
    Adaptive.run ~config:{ small_config with Adaptive.max_rounds = 0 } (Rng.create ~seed:6) g
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "max_rounds 0 accepted"

let test_on_round_callback () =
  let g = Lazy.force golden in
  let calls = ref 0 in
  let r =
    Adaptive.run ~config:small_config
      ~on_round:(fun ~round:_ ~drawn ~masked ~sdc ~crash ->
        incr calls;
        Alcotest.(check int) "round tallies partition the draw" drawn (masked + sdc + crash))
      (Rng.create ~seed:7) g
  in
  Alcotest.(check int) "one callback per round" r.Adaptive.rounds !calls

let test_unbiased_variant_runs () =
  let g = Lazy.force golden in
  let r =
    Adaptive.run
      ~config:{ small_config with Adaptive.bias = false; filter = false }
      (Rng.create ~seed:8) g
  in
  Alcotest.(check bool) "uniform candidate selection also terminates" true
    (r.Adaptive.rounds > 0)

let test_deterministic_given_seed () =
  let g = Lazy.force golden in
  let a = Adaptive.run ~config:small_config (Rng.create ~seed:9) g in
  let b = Adaptive.run ~config:small_config (Rng.create ~seed:9) g in
  Alcotest.(check int) "same sample count" (Array.length a.Adaptive.samples)
    (Array.length b.Adaptive.samples);
  Alcotest.(check int) "same rounds" a.Adaptive.rounds b.Adaptive.rounds

(* The planner as it was before errors were precomputed: a full scan that
   recomputes every case's injected error, a hash set of sampled cases,
   information re-collected from every sample, and a weighted draw that
   sorts all keys. The test-local oracle the planner must match draw for
   draw. *)
let full_sort_weighted rng ~weights ~k =
  let keys =
    Array.mapi
      (fun i w ->
        if w = 0. then (infinity, i)
        else
          let u = 1. -. Rng.float rng 1. in
          (-.log u /. w, i))
      weights
  in
  Array.sort compare keys;
  Array.init k (fun j -> snd keys.(j))

let full_scan_plan ?errors ~config ~spec golden state rng =
  let width = Models.spec_width spec in
  let total = Adaptive.state_total state in
  let samples = Adaptive.state_samples state in
  let sampled = Hashtbl.create 64 in
  Array.iter
    (fun (s : Sample_run.t) ->
      let fault = s.Sample_run.fault in
      Hashtbl.replace sampled ((fault.Fault.site * width) + fault.Fault.bit) ())
    samples;
  let boundary = Adaptive.state_boundary state in
  let info =
    if samples = [||] then Array.make (Golden.sites golden) 0.
    else Info.total (Info.collect golden samples)
  in
  let candidates = ref [] and count = ref 0 in
  for case = total - 1 downto 0 do
    if not (Hashtbl.mem sampled case) then begin
      let err =
        match errors with
        | Some errors -> errors.(case)
        | None -> Ground_truth.injected_error_model spec golden ~case
      in
      if not (err <= Boundary.threshold boundary (case / width)) then begin
        candidates := case :: !candidates;
        incr count
      end
    end
  done;
  if !count = 0 then None
  else begin
    let pool = Array.of_list !candidates in
    let round_size =
      max 1
        (int_of_float (Float.ceil (config.Adaptive.round_fraction *. float_of_int total)))
    in
    let k = min round_size !count in
    let drawn =
      if config.Adaptive.bias then
        full_sort_weighted rng
          ~weights:(Array.map (fun case -> 1. /. Float.max info.(case / width) 1.) pool)
          ~k
      else Ftb_util.Sampling.uniform rng ~n:!count ~k
    in
    Some (Array.map (fun i -> pool.(i)) drawn)
  end

(* Every round of a campaign, to its stop: the planner's draw and RNG
   state against [full_scan_plan]'s. Returns the rounds planned. *)
let check_against_full_scan ~what ~config ~spec ~seed g =
  let state = Adaptive.state_create ~config ~spec g in
  (* Errors are a pure function of the case: computed once, not per round. *)
  let errors =
    Array.init (Adaptive.state_total state) (fun case ->
        Ground_truth.injected_error_model spec g ~case)
  in
  let rng = Rng.create ~seed in
  let rec round r =
    let old_rng = Rng.copy rng in
    let expected = full_scan_plan ~errors ~config ~spec g state old_rng in
    let drawn = Adaptive.plan_round state rng in
    Alcotest.(check (option (array int))) (Printf.sprintf "%s: round %d draw" what r) expected drawn;
    Alcotest.(check int64)
      (Printf.sprintf "%s: round %d rng" what r)
      (Rng.state old_rng) (Rng.state rng);
    match drawn with
    | None -> r
    | Some cases -> (
        let samples = Array.map (Sample_run.run_case_model spec g) cases in
        match Adaptive.fold_round state ~cases ~samples with
        | `Continue -> round (r + 1)
        | `Stop _ -> r)
  in
  round 1

let test_draws_match_full_scan_planner () =
  let programs =
    [ ("linear", Lazy.force golden); ("ir.dot", Golden.run (Ftb_kernels.Suite.find "ir.dot")) ]
  in
  let specs =
    List.map (fun model -> { Models.model; seed = 0 }) Models.all_discrete
    @ [ { Models.model = Models.Random_value { lo = -10.; hi = 10. }; seed = 5 } ]
  in
  let runs = ref 0 and rounds = ref 0 in
  List.iter
    (fun (name, g) ->
      List.iter
        (fun spec ->
          List.iter
            (fun bias ->
              let config = { small_config with Adaptive.bias } in
              let what =
                Printf.sprintf "%s %s bias=%b" name (Models.spec_to_string spec) bias
              in
              incr runs;
              rounds := !rounds + check_against_full_scan ~what ~config ~spec ~seed:23 g)
            [ true; false ])
        specs)
    programs;
  Alcotest.(check bool) "most campaigns run several rounds" true (!rounds > 2 * !runs)

(* At paper scale: the default 0.1 % rounds over ir.fft and ir.cg, so the
   reservoir is full for most of the scan and its maximum key falls as
   better keys arrive — the path where draws are screened before [log]. *)
let test_draws_match_full_scan_at_scale () =
  let config = Adaptive.default_config in
  List.iter
    (fun name ->
      let g = Golden.run (Ftb_kernels.Suite.find name) in
      List.iter
        (fun model ->
          let spec = { Models.model; seed = 0 } in
          List.iter
            (fun bias ->
              List.iter
                (fun seed ->
                  let config = { config with Adaptive.bias } in
                  let what =
                    Printf.sprintf "%s %s bias=%b seed=%d" name (Models.spec_to_string spec)
                      bias seed
                  in
                  ignore (check_against_full_scan ~what ~config ~spec ~seed g : int))
                [ 3; 17; 41 ])
            [ true; false ])
        [ Models.Bit_flip_64; Models.Bit_flip_32 ])
    [ "ir.fft"; "ir.cg" ]

(* A plan streams its candidates: what it allocates is bounded by the
   round, not by the space (90,112 cases on ir.fft, 91 per round). Both
   minor words and words allocated directly in the major heap count. *)
let test_plan_allocation_is_per_round () =
  let g = Golden.run (Ftb_kernels.Suite.find "ir.fft") in
  List.iter
    (fun bias ->
      let config = { Adaptive.default_config with Adaptive.bias } in
      let state = Adaptive.state_create ~config g in
      let rng = Rng.create ~seed:5 in
      for _ = 1 to 3 do
        match Adaptive.plan_round state rng with
        | None -> Alcotest.fail "pool exhausted early"
        | Some cases ->
            let samples = Array.map (Sample_run.run_case_model Models.default_spec g) cases in
            ignore (Adaptive.fold_round state ~cases ~samples : [ `Stop of _ | `Continue ])
      done;
      let round_size = int_of_float (Float.ceil (0.001 *. float_of_int (Adaptive.state_total state))) in
      let direct_major () =
        let _, promoted, major = Gc.counters () in
        major -. promoted
      in
      let minor0 = Gc.minor_words () and major0 = direct_major () in
      let drawn = Adaptive.plan_round state rng in
      let minor1 = Gc.minor_words () and major1 = direct_major () in
      Alcotest.(check bool) "a round was drawn" true (drawn <> None);
      let words = minor1 -. minor0 +. (major1 -. major0) in
      let budget = float_of_int ((16 * round_size) + 512) in
      if words > budget then
        Alcotest.failf "bias=%b: plan_round allocated %.0f words, budget %.0f (%d cases)" bias
          words budget (Adaptive.state_total state))
    [ true; false ]

let test_incremental_fold_equals_infer () =
  (* After every fold the state's boundary is [Boundary.infer] over all
     samples so far, bit for bit, with the filter on (where a falling SDC
     floor re-derives a site) and off. *)
  let programs =
    [
      ("linear", small_config, Lazy.force golden);
      ("ir.fft", Adaptive.default_config, Golden.run (Ftb_kernels.Suite.find "ir.fft"));
    ]
  in
  List.iter
    (fun (name, config, g) ->
      List.iter
        (fun filter ->
          let config = { config with Adaptive.filter } in
          let state = Adaptive.state_create ~config g in
          let rng = Rng.create ~seed:29 in
          let rec round r =
            match Adaptive.plan_round state rng with
            | None -> r
            | Some cases ->
                let samples = Array.map (Sample_run.run_case_model Models.default_spec g) cases in
                let verdict = Adaptive.fold_round state ~cases ~samples in
                let got = Adaptive.state_boundary state in
                let want =
                  Boundary.infer ~filter ~sites:(Golden.sites g) (Adaptive.state_samples state)
                in
                let bits b = Array.map Int64.bits_of_float b.Boundary.thresholds in
                if bits got <> bits want || got.Boundary.support <> want.Boundary.support then
                  Alcotest.failf "%s filter=%b: round %d boundary differs from infer" name filter r;
                (match verdict with `Continue -> round (r + 1) | `Stop _ -> r)
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s filter=%b: several rounds folded" name filter)
            true
            (round 1 > 2))
        [ true; false ])
    programs

let suite =
  [
    Alcotest.test_case "runs and terminates" `Quick test_runs_and_terminates;
    Alcotest.test_case "no duplicate samples" `Quick test_no_duplicate_samples;
    Alcotest.test_case "fraction consistent" `Quick test_sample_count_matches_fraction;
    Alcotest.test_case "prediction close to truth" `Quick
      test_prediction_close_to_truth_on_monotone_program;
    Alcotest.test_case "fewer samples than exhaustive" `Quick
      test_uses_fewer_samples_than_exhaustive;
    Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
    Alcotest.test_case "on_round callback" `Quick test_on_round_callback;
    Alcotest.test_case "unbiased variant" `Quick test_unbiased_variant_runs;
    Alcotest.test_case "deterministic given seed" `Quick test_deterministic_given_seed;
    Alcotest.test_case "draws match the full-scan planner" `Quick
      test_draws_match_full_scan_planner;
    Alcotest.test_case "draws match the full-scan planner at scale" `Slow
      test_draws_match_full_scan_at_scale;
    Alcotest.test_case "plan allocation is per round" `Quick test_plan_allocation_is_per_round;
    Alcotest.test_case "incremental fold = infer every round" `Quick
      test_incremental_fold_equals_infer;
  ]
