module Predict = Ftb_core.Predict
module Boundary = Ftb_core.Boundary
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))
let gt = lazy (Ground_truth.run (Lazy.force golden))

let boundary_with thresholds =
  let b = Boundary.create ~sites:(Array.length thresholds) in
  Array.iteri
    (fun i t -> if t > 0. then Boundary.add_masked_propagation b ([| i |], [| t |]))
    thresholds;
  b

let test_predicted_masked () =
  let g = Lazy.force golden in
  let b = boundary_with (Array.make Helpers.linear_sites 0.4) in
  (* Low mantissa flip: tiny error <= 0.4 -> predicted masked. *)
  Alcotest.(check bool) "tiny flip predicted masked" true
    (Predict.predicted_masked b g (Fault.make ~site:0 ~bit:3));
  (* Sign flip of 1.0: error 2 > 0.4 -> predicted SDC. *)
  Alcotest.(check bool) "sign flip predicted SDC" false
    (Predict.predicted_masked b g (Fault.make ~site:0 ~bit:63))

let test_zero_boundary_predicts_all_sdc () =
  let g = Lazy.force golden in
  let b = Boundary.create ~sites:Helpers.linear_sites in
  let ratios = Predict.site_sdc_ratio ~policy:Predict.Boundary_only b g in
  Array.iter (fun r -> Helpers.check_close "all flips assumed SDC" 1. r) ratios

let test_exhaustive_boundary_reproduces_truth () =
  let t = Lazy.force gt in
  let b = Boundary.exhaustive t in
  let predicted = Predict.site_sdc_ratio_vs_ground_truth b t in
  let true_ratio = Ground_truth.site_sdc_ratio t in
  Array.iteri
    (fun i p ->
      Helpers.check_close ~eps:1e-12
        (Printf.sprintf "monotone program: exact per-site prediction (site %d)" i)
        true_ratio.(i) p)
    predicted

let test_observations () =
  let g = Lazy.force golden in
  let samples =
    Array.map
      (fun bit -> Helpers.run_case g (Fault.to_case (Fault.make ~site:0 ~bit)))
      [| 0; 63 |]
  in
  let obs = Predict.observations_of_samples samples in
  Alcotest.(check int) "two observations" 2 (Predict.observed_count obs);
  (match Predict.observed obs (Fault.to_case (Fault.make ~site:0 ~bit:63)) with
  | Some Runner.Sdc -> ()
  | _ -> Alcotest.fail "sign flip observation missing or wrong");
  Alcotest.(check bool) "unknown case unobserved" true
    (Predict.observed obs (Fault.to_case (Fault.make ~site:1 ~bit:0)) = None)

let test_policy_observed_all () =
  let g = Lazy.force golden in
  (* Zero boundary, but one site fully described by observations: the
     Observed_all policy must use the sampled outcomes for sampled cases. *)
  let b = Boundary.create ~sites:Helpers.linear_sites in
  let samples =
    Array.init 64 (fun bit -> Helpers.run_case g (Fault.to_case (Fault.make ~site:2 ~bit)))
  in
  let obs = Predict.observations_of_samples samples in
  let boundary_only = Predict.site_sdc_ratio ~policy:Predict.Boundary_only ~observations:obs b g in
  let observed_all = Predict.site_sdc_ratio ~policy:Predict.Observed_all ~observations:obs b g in
  Helpers.check_close "boundary-only ignores observations" 1. boundary_only.(2);
  let t = Lazy.force gt in
  Helpers.check_close "observed-all uses known outcomes"
    (Ground_truth.site_sdc_ratio t).(2) observed_all.(2)

let test_policy_full_sites_only () =
  let g = Lazy.force golden in
  let b = Boundary.create ~sites:Helpers.linear_sites in
  (* Only 63 of 64 bits sampled at site 2: Observed_full_sites must fall
     back to the boundary for the whole site. *)
  let samples =
    Array.init 63 (fun bit -> Helpers.run_case g (Fault.to_case (Fault.make ~site:2 ~bit)))
  in
  let obs = Predict.observations_of_samples samples in
  let r = Predict.site_sdc_ratio ~policy:Predict.Observed_full_sites ~observations:obs b g in
  Helpers.check_close "incomplete site falls back to boundary" 1. r.(2);
  (* Complete the site: now the true outcomes are used. *)
  let samples =
    Array.init 64 (fun bit -> Helpers.run_case g (Fault.to_case (Fault.make ~site:2 ~bit)))
  in
  let obs = Predict.observations_of_samples samples in
  let r = Predict.site_sdc_ratio ~policy:Predict.Observed_full_sites ~observations:obs b g in
  let t = Lazy.force gt in
  Helpers.check_close "complete site uses truth" (Ground_truth.site_sdc_ratio t).(2) r.(2)

let test_overall_is_mean_of_sites () =
  let g = Lazy.force golden in
  let b = boundary_with (Array.make Helpers.linear_sites 0.4) in
  let sites = Predict.site_sdc_ratio b g in
  Helpers.check_close ~eps:1e-12 "overall = mean" (Ftb_util.Stats.mean sites)
    (Predict.overall_sdc_ratio b g)

let test_site_count_mismatch_rejected () =
  let g = Lazy.force golden in
  let b = Boundary.create ~sites:3 in
  match Predict.site_sdc_ratio b g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mismatched boundary accepted"

let suite =
  [
    Alcotest.test_case "predicted_masked" `Quick test_predicted_masked;
    Alcotest.test_case "zero boundary predicts all SDC" `Quick
      test_zero_boundary_predicts_all_sdc;
    Alcotest.test_case "exhaustive boundary reproduces truth" `Quick
      test_exhaustive_boundary_reproduces_truth;
    Alcotest.test_case "observations" `Quick test_observations;
    Alcotest.test_case "policy Observed_all" `Quick test_policy_observed_all;
    Alcotest.test_case "policy Observed_full_sites" `Quick test_policy_full_sites_only;
    Alcotest.test_case "overall is mean of sites" `Quick test_overall_is_mean_of_sites;
    Alcotest.test_case "site count mismatch rejected" `Quick
      test_site_count_mismatch_rejected;
  ]
