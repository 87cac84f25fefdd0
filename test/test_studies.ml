module Context = Ftb_core.Context
module Study_exhaustive = Ftb_core.Study_exhaustive
module Study_inference = Ftb_core.Study_inference
module Study_sweep = Ftb_core.Study_sweep
module Study_adaptive = Ftb_core.Study_adaptive
module Study_scaling = Ftb_core.Study_scaling
module Ground_truth = Ftb_inject.Ground_truth

(* A tiny CG instance keeps the exhaustive campaigns inside the test budget
   while exercising the full pipeline end to end. *)
let tiny_cg grid =
  Ftb_oracle.Cg.program { Ftb_oracle.Cg.grid; iterations = 4; tolerance = 1e-4 }

let context = lazy (Context.prepare ~name:"cg" (tiny_cg 3))
let linear_context = lazy (Context.prepare ~name:"linear" (Helpers.linear_program ()))

let test_context_fields () =
  let c = Lazy.force context in
  Alcotest.(check string) "name" "cg" c.Context.name;
  Alcotest.(check int) "cases = sites * 64" (Context.sites c * 64) (Context.cases c);
  Alcotest.(check bool) "golden SDC in (0,1)" true
    (Context.golden_sdc_ratio c > 0. && Context.golden_sdc_ratio c < 1.)

let test_exhaustive_study () =
  let c = Lazy.force context in
  let r = Study_exhaustive.run c in
  Alcotest.(check string) "name" "cg" r.Study_exhaustive.name;
  Alcotest.(check int) "delta per site" (Context.sites c)
    (Array.length r.Study_exhaustive.delta_sdc);
  (* The boundary can only over-predict SDC, so golden - approx <= 0... for
     monotone sites it is 0; overall the approximation must track the
     golden ratio closely. *)
  Alcotest.(check bool)
    (Printf.sprintf "approx %.4f close to golden %.4f" r.Study_exhaustive.approx_sdc
       r.Study_exhaustive.golden_sdc)
    true
    (abs_float (r.Study_exhaustive.approx_sdc -. r.Study_exhaustive.golden_sdc) < 0.02);
  Alcotest.(check bool) "non-monotonic fraction in [0,1]" true
    (r.Study_exhaustive.non_monotonic_fraction >= 0.
    && r.Study_exhaustive.non_monotonic_fraction <= 1.)

let test_exhaustive_study_perfect_on_linear () =
  let r = Study_exhaustive.run (Lazy.force linear_context) in
  Helpers.check_close ~eps:1e-12 "exact on a monotone program" r.Study_exhaustive.golden_sdc
    r.Study_exhaustive.approx_sdc;
  Array.iter
    (fun d -> Helpers.check_close ~eps:1e-12 "zero delta everywhere" 0. d)
    r.Study_exhaustive.delta_sdc;
  Helpers.check_close "no non-monotonic sites" 0. r.Study_exhaustive.non_monotonic_fraction

let test_non_monotonic_sites_detector () =
  let g = Ftb_trace.Golden.run (Helpers.nonmonotonic_program ()) in
  let t = Ground_truth.run g in
  let flags = Study_exhaustive.non_monotonic_sites t in
  Alcotest.(check bool) "the x-load site is flagged" true flags.(0)

let test_inference_study () =
  let c = Lazy.force context in
  let r = Study_inference.run ~fraction:0.02 ~trials:3 ~seed:1 c in
  Alcotest.(check int) "3 trials" 3 (Array.length r.Study_inference.trials);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "precision in [0,1]" true
        (t.Study_inference.precision >= 0. && t.Study_inference.precision <= 1.);
      Alcotest.(check bool) "recall in [0,1]" true
        (t.Study_inference.recall >= 0. && t.Study_inference.recall <= 1.);
      Alcotest.(check bool) "uncertainty in [0,1]" true
        (t.Study_inference.uncertainty >= 0. && t.Study_inference.uncertainty <= 1.);
      Alcotest.(check bool) "sample tallies positive" true
        (t.Study_inference.masked_samples + t.Study_inference.sdc_samples
         + t.Study_inference.crash_samples
        > 0))
    r.Study_inference.trials;
  Alcotest.(check int) "series lengths agree" (Context.sites c)
    (Array.length r.Study_inference.predicted_ratio);
  Alcotest.(check int) "impact series" (Context.sites c)
    (Array.length r.Study_inference.impact)

let test_inference_uncertainty_tracks_precision () =
  (* The paper's self-verification claim: uncertainty (no ground truth)
     approximates precision (needs ground truth). *)
  let c = Lazy.force context in
  let r = Study_inference.run ~fraction:0.05 ~trials:5 ~seed:2 c in
  let precision =
    Ftb_util.Stats.mean (Array.map (fun t -> t.Study_inference.precision) r.Study_inference.trials)
  in
  let uncertainty =
    Ftb_util.Stats.mean
      (Array.map (fun t -> t.Study_inference.uncertainty) r.Study_inference.trials)
  in
  Alcotest.(check bool)
    (Printf.sprintf "|precision %.4f - uncertainty %.4f| < 0.05" precision uncertainty)
    true
    (abs_float (precision -. uncertainty) < 0.05)

let test_sweep_study_recall_grows () =
  let c = Lazy.force context in
  let r = Study_sweep.run ~fractions:[| 0.01; 0.2 |] ~trials:3 ~seed:3 c in
  let without = r.Study_sweep.without_filter in
  Alcotest.(check int) "two points" 2 (Array.length without);
  Alcotest.(check bool)
    (Printf.sprintf "recall grows with sample size (%.3f -> %.3f)"
       without.(0).Study_sweep.recall_mean without.(1).Study_sweep.recall_mean)
    true
    (without.(1).Study_sweep.recall_mean > without.(0).Study_sweep.recall_mean);
  (* The filtered variant must keep precision at least as high on average. *)
  let mean_precision points =
    Ftb_util.Stats.mean (Array.map (fun p -> p.Study_sweep.precision_mean) points)
  in
  Alcotest.(check bool) "filter does not hurt precision" true
    (mean_precision r.Study_sweep.with_filter >= mean_precision without -. 0.01)

let test_adaptive_study () =
  let c = Lazy.force context in
  let r = Study_adaptive.run ~trials:3 ~seed:4 c in
  Alcotest.(check int) "3 trials" 3 (Array.length r.Study_adaptive.trials);
  Array.iter
    (fun t ->
      Alcotest.(check bool) "fraction in (0,1]" true
        (t.Study_adaptive.sample_fraction > 0. && t.Study_adaptive.sample_fraction <= 1.);
      Alcotest.(check bool) "prediction in [0,1]" true
        (t.Study_adaptive.predicted_sdc >= 0. && t.Study_adaptive.predicted_sdc <= 1.))
    r.Study_adaptive.trials;
  (* Shape check from Table 3: far fewer samples than the exhaustive
     campaign, prediction in the golden ratio's neighbourhood. *)
  let mean_fraction =
    Ftb_util.Stats.mean
      (Array.map (fun t -> t.Study_adaptive.sample_fraction) r.Study_adaptive.trials)
  in
  Alcotest.(check bool) "order-of-magnitude sample reduction" true (mean_fraction < 0.5);
  let mean_prediction =
    Ftb_util.Stats.mean
      (Array.map (fun t -> t.Study_adaptive.predicted_sdc) r.Study_adaptive.trials)
  in
  Alcotest.(check bool)
    (Printf.sprintf "prediction %.3f near golden %.3f" mean_prediction
       r.Study_adaptive.golden_sdc)
    true
    (abs_float (mean_prediction -. r.Study_adaptive.golden_sdc) < 0.15)

let test_scaling_study () =
  let small = Context.prepare ~name:"cg-small" (tiny_cg 2) in
  let large = Lazy.force context in
  let r =
    Study_scaling.run ~samples:300 ~trials:2 ~seed:5 [| ("2x2", small); ("3x3", large) |]
  in
  Alcotest.(check int) "two rows" 2 (Array.length r.Study_scaling.rows);
  let row0 = r.Study_scaling.rows.(0) and row1 = r.Study_scaling.rows.(1) in
  Alcotest.(check string) "labels in order" "2x2" row0.Study_scaling.label;
  Alcotest.(check bool) "larger input, smaller sample fraction" true
    (row1.Study_scaling.sample_fraction < row0.Study_scaling.sample_fraction
    || row0.Study_scaling.sample_fraction = 1.);
  Array.iter
    (fun (row : Study_scaling.row) ->
      Alcotest.(check bool) "precision in [0,1]" true
        (row.Study_scaling.precision_mean >= 0. && row.Study_scaling.precision_mean <= 1.))
    r.Study_scaling.rows

let suite =
  [
    Alcotest.test_case "context fields" `Quick test_context_fields;
    Alcotest.test_case "exhaustive study (Table 1/Fig 3)" `Quick test_exhaustive_study;
    Alcotest.test_case "exhaustive study exact on linear" `Quick
      test_exhaustive_study_perfect_on_linear;
    Alcotest.test_case "non-monotonic detector" `Quick test_non_monotonic_sites_detector;
    Alcotest.test_case "inference study (Table 2/Fig 4)" `Quick test_inference_study;
    Alcotest.test_case "uncertainty tracks precision (sec. 3.6)" `Quick
      test_inference_uncertainty_tracks_precision;
    Alcotest.test_case "sweep study (Fig 5)" `Slow test_sweep_study_recall_grows;
    Alcotest.test_case "adaptive study (Table 3)" `Quick test_adaptive_study;
    Alcotest.test_case "scaling study (Table 4)" `Quick test_scaling_study;
  ]
