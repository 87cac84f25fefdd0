(* Cross-module qcheck properties: randomized invariants of the analysis
   pipeline on the linear fixture, where ground truth is analytic. *)

module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run
module Boundary = Ftb_core.Boundary
module Predict = Ftb_core.Predict
module Metrics = Ftb_core.Metrics

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))
let gt = lazy (Ground_truth.run (Lazy.force golden))

let case_gen = QCheck.int_bound (Helpers.linear_sites * 64 - 1)

let prop_outcome_independent_of_history =
  (* Runs are stateless: classifying the same case twice (interleaved with
     arbitrary other runs) gives the same outcome. *)
  QCheck.Test.make ~name:"outcome runs are stateless" ~count:100
    QCheck.(pair case_gen case_gen)
    (fun (case_a, case_b) ->
      let g = Lazy.force golden in
      let first = (Runner.run_outcome g (Fault.of_case case_a)).Runner.outcome in
      ignore (Runner.run_outcome g (Fault.of_case case_b));
      let second = (Runner.run_outcome g (Fault.of_case case_a)).Runner.outcome in
      Runner.outcome_equal first second)

let prop_linear_outcome_threshold =
  (* Analytic ground truth of the fixture: masked iff injected error is at
     most the tolerance, crash iff the flip is non-finite. *)
  QCheck.Test.make ~name:"linear program classifies by error magnitude" ~count:200 case_gen
    (fun case ->
      let g = Lazy.force golden in
      let fault = Fault.of_case case in
      let e = Ground_truth.injected_error g fault in
      match (Runner.run_outcome g fault).Runner.outcome with
      | Runner.Masked -> e <= 0.5
      | Runner.Sdc -> e > 0.5 && Float.is_finite e
      | Runner.Crash -> true (* non-finite propagation; magnitude alone can't decide *))

let prop_boundary_subset_monotone_recall =
  (* More samples never reduce recall of the unfiltered boundary. *)
  QCheck.Test.make ~name:"recall is monotone in the sample set" ~count:40
    QCheck.(list_of_size (Gen.int_range 2 30) case_gen)
    (fun cases ->
      let g = Lazy.force golden and t = Lazy.force gt in
      let cases = Array.of_list cases in
      let samples = Sample_run.run_cases g cases in
      let half = Array.sub samples 0 (Array.length samples / 2) in
      let recall set =
        (Metrics.evaluate (Boundary.infer ~sites:Helpers.linear_sites set) t).Metrics.recall
      in
      recall samples +. 1e-12 >= recall half)

let prop_filter_never_raises_thresholds =
  QCheck.Test.make ~name:"the filter operation never raises a threshold" ~count:40
    QCheck.(list_of_size (Gen.int_range 1 40) case_gen)
    (fun cases ->
      let g = Lazy.force golden in
      let samples = Sample_run.run_cases g (Array.of_list cases) in
      let plain = Boundary.infer ~filter:false ~sites:Helpers.linear_sites samples in
      let filtered = Boundary.infer ~filter:true ~sites:Helpers.linear_sites samples in
      let ok = ref true in
      for site = 0 to Helpers.linear_sites - 1 do
        if Boundary.threshold filtered site > Boundary.threshold plain site then ok := false
      done;
      !ok)

let prop_predicted_masked_monotone_in_threshold =
  (* If a case is predicted masked, it stays predicted masked under any
     boundary with pointwise-larger thresholds. *)
  QCheck.Test.make ~name:"prediction is monotone in the boundary" ~count:100
    QCheck.(pair case_gen (float_bound_exclusive 2.))
    (fun (case, extra) ->
      QCheck.assume (extra >= 0.);
      let g = Lazy.force golden in
      let base = Boundary.create ~sites:Helpers.linear_sites in
      for site = 0 to Helpers.linear_sites - 1 do
        Boundary.add_masked_propagation base ([| site |], [| 0.25 |])
      done;
      let bigger = Boundary.create ~sites:Helpers.linear_sites in
      for site = 0 to Helpers.linear_sites - 1 do
        Boundary.add_masked_propagation bigger ([| site |], [| 0.25 +. extra |])
      done;
      let fault = Fault.of_case case in
      (not (Predict.predicted_masked base g fault)) || Predict.predicted_masked bigger g fault)

let prop_site_ratio_bounds =
  QCheck.Test.make ~name:"per-site predicted ratios stay in [0,1]" ~count:40
    QCheck.(list_of_size (Gen.int_range 0 30) case_gen)
    (fun cases ->
      let g = Lazy.force golden in
      let samples = Sample_run.run_cases g (Array.of_list cases) in
      let b = Boundary.infer ~sites:Helpers.linear_sites samples in
      let obs = Predict.observations_of_samples samples in
      Array.for_all
        (fun r -> r >= 0. && r <= 1.)
        (Predict.site_sdc_ratio ~policy:Predict.Observed_all ~observations:obs b g))

let prop_persist_roundtrip_random_samples =
  QCheck.Test.make ~name:"sample persistence round-trips arbitrary draws" ~count:25
    QCheck.(list_of_size (Gen.int_range 1 20) case_gen)
    (fun cases ->
      let g = Lazy.force golden in
      let samples = Sample_run.run_cases g (Array.of_list cases) in
      let loaded =
        Ftb_inject.Sample_codec.decode (Ftb_inject.Sample_codec.encode samples)
      in
      Array.length loaded = Array.length samples
      && Array.for_all2 Helpers.sample_bits_equal samples loaded)

let prop_lockstep_agrees_with_runner =
  QCheck.Test.make ~name:"lockstep classification equals store-and-diff" ~count:60 case_gen
    (fun case ->
      let g = Lazy.force golden in
      let fault = Fault.of_case case in
      let a = (Runner.run_outcome g fault).Runner.outcome in
      let b =
        (Ftb_trace.Lockstep.run (Helpers.linear_program ~tolerance:0.5 ()) fault)
          .Ftb_trace.Lockstep.outcome
      in
      Runner.outcome_equal a b)

let suite =
  List.map Helpers.qcheck_to_alcotest
    [
      prop_outcome_independent_of_history;
      prop_linear_outcome_threshold;
      prop_boundary_subset_monotone_recall;
      prop_filter_never_raises_thresholds;
      prop_predicted_masked_monotone_in_threshold;
      prop_site_ratio_bounds;
      prop_persist_roundtrip_random_samples;
      prop_lockstep_agrees_with_runner;
    ]
