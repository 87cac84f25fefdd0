module Boundary = Ftb_core.Boundary
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))
let gt = lazy (Ground_truth.run (Lazy.force golden))

let test_create () =
  let b = Boundary.create ~sites:5 in
  Alcotest.(check int) "sites" 5 (Boundary.sites b);
  for i = 0 to 4 do
    Helpers.check_close "zero thresholds" 0. (Boundary.threshold b i)
  done;
  match Boundary.create ~sites:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 sites accepted"

let test_add_masked_propagation_takes_max () =
  let b = Boundary.create ~sites:4 in
  Boundary.add_masked_propagation b ([| 1; 2 |], [| 0.3; 0.1 |]);
  Boundary.add_masked_propagation b ([| 1; 2 |], [| 0.2; 0.4 |]);
  Helpers.check_close "untouched site" 0. (Boundary.threshold b 0);
  Helpers.check_close "max aggregation" 0.3 (Boundary.threshold b 1);
  Helpers.check_close "max aggregation (second site)" 0.4 (Boundary.threshold b 2);
  Helpers.check_close "beyond coverage untouched" 0. (Boundary.threshold b 3);
  Alcotest.(check int) "support counts contributions" 2 b.Boundary.support.(1)

let test_zero_deviations_carry_no_evidence () =
  let b = Boundary.create ~sites:2 in
  Boundary.add_masked_propagation b ([| 0; 1 |], [| 0.; 0. |]);
  Alcotest.(check int) "no support from zero deviation" 0 b.Boundary.support.(0)

let test_coverage_bounds_checked () =
  let b = Boundary.create ~sites:2 in
  (match Boundary.add_masked_propagation b ([| 1; 2 |], [| 1.; 2. |]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range coverage accepted");
  (match Boundary.add_masked_propagation b ([| -1 |], [| 1. |]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative site accepted");
  match Boundary.add_masked_propagation b ([| 0; 1 |], [| 1. |]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "pairs of unequal length accepted"

let test_filter_blocks_large_deviations () =
  let b = Boundary.create ~sites:2 in
  let floor = [| 0.25; infinity |] in
  Boundary.add_masked_propagation ~min_sdc_error:floor b ([| 0; 1 |], [| 0.3; 0.3 |]);
  Helpers.check_close "filtered out at site 0" 0. (Boundary.threshold b 0);
  Helpers.check_close "kept where no sdc floor" 0.3 (Boundary.threshold b 1)

let test_min_sdc_errors () =
  let mk outcome site err propagation =
    {
      Sample_run.fault = Fault.make ~site ~bit:0;
      outcome;
      crash_reason = None;
      injected_error = err;
      propagation;
    }
  in
  let samples =
    [|
      mk Runner.Sdc 0 0.5 None;
      mk Runner.Sdc 0 0.2 None;
      mk Runner.Crash 1 0.1 None;
      mk Runner.Masked 1 0.05 (Some ([| 1 |], [| 0.05 |]));
    |]
  in
  let floor = Boundary.min_sdc_errors ~sites:3 samples in
  Helpers.check_close "min over sdc" 0.2 floor.(0);
  Helpers.check_close "crash ignored" infinity floor.(1);
  Helpers.check_close "no data" infinity floor.(2)

let test_infer_uses_only_masked () =
  let g = Lazy.force golden in
  (* site 0, bit 5 -> masked; site 0, bit 63 -> sdc. *)
  let samples =
    Array.map
      (fun bit -> Helpers.run_case g (Fault.to_case (Fault.make ~site:0 ~bit)))
      [| 5; 63 |]
  in
  let b = Boundary.infer ~sites:Helpers.linear_sites samples in
  Alcotest.(check bool) "threshold from the masked sample only" true
    (Boundary.threshold b 0 > 0. && Boundary.threshold b 0 < 0.5)

let test_exhaustive_boundary_linear_program () =
  (* For the monotone linear program every site's threshold must be the
     largest masked injected error, and predicting with it reproduces the
     exact SDC set. *)
  let g = Lazy.force golden and t = Lazy.force gt in
  let b = Boundary.exhaustive t in
  for site = 0 to Helpers.linear_sites - 1 do
    let thr = Boundary.threshold b site in
    Alcotest.(check bool) "threshold within tolerance" true (thr <= 0.5 && thr > 0.);
    for bit = 0 to 63 do
      let fault = Fault.make ~site ~bit in
      let e = Ground_truth.injected_error g fault in
      match Ground_truth.outcome_of_fault t fault with
      | Runner.Masked ->
          Alcotest.(check bool) "masked cases sit at or below the boundary" true (e <= thr)
      | Runner.Sdc ->
          Alcotest.(check bool) "sdc cases sit above the boundary" true (e > thr)
      | Runner.Crash -> ()
    done
  done

let test_exhaustive_boundary_nonmonotonic_site () =
  (* x*(x-2) at x=0 with T=0.5: an injected error of exactly 2 is masked,
     but errors in (~0.27, ~1.7) are SDC — the masked-above-SDC sample must
     not raise the threshold past the smallest SDC error. *)
  let g = Golden.run (Helpers.nonmonotonic_program ~tolerance:0.5 ()) in
  let t = Ground_truth.run g in
  let b = Boundary.exhaustive t in
  let min_sdc = ref infinity in
  for bit = 0 to 63 do
    let fault = Fault.make ~site:0 ~bit in
    if Ground_truth.outcome_of_fault t fault = Runner.Sdc then begin
      let e = Ground_truth.injected_error g fault in
      if e < !min_sdc then min_sdc := e
    end
  done;
  Alcotest.(check bool) "site 0 has SDC cases" true (!min_sdc < infinity);
  Alcotest.(check bool) "threshold below the smallest SDC error" true
    (Boundary.threshold b 0 < !min_sdc)

let test_copy_is_independent () =
  let b = Boundary.create ~sites:2 in
  Boundary.add_masked_propagation b ([| 0 |], [| 0.1 |]);
  let c = Boundary.copy b in
  Boundary.add_masked_propagation b ([| 0 |], [| 0.9 |]);
  Helpers.check_close "copy unaffected" 0.1 (Boundary.threshold c 0)

let prop_threshold_monotone_in_samples =
  QCheck.Test.make ~name:"adding samples never lowers an unfiltered boundary" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 20) (int_bound (Helpers.linear_sites * 64 - 1)))
    (fun cases ->
      let g = Lazy.force golden in
      let samples = Array.map (Helpers.run_case g) (Array.of_list cases) in
      let half = Array.sub samples 0 (Array.length samples / 2) in
      let b_half = Boundary.infer ~sites:Helpers.linear_sites half in
      let b_full = Boundary.infer ~sites:Helpers.linear_sites samples in
      let ok = ref true in
      for i = 0 to Helpers.linear_sites - 1 do
        if Boundary.threshold b_full i < Boundary.threshold b_half i then ok := false
      done;
      !ok)

let prop_accumulator_equals_infer =
  QCheck.Test.make ~name:"the accumulator equals infer after every batch" ~count:50
    QCheck.(
      pair bool
        (list_of_size (Gen.int_range 1 8)
           (list_of_size (Gen.int_range 0 12) (int_bound ((Helpers.linear_sites * 64) - 1)))))
    (fun (filter, batches) ->
      let g = Lazy.force golden in
      let sites = Helpers.linear_sites in
      let b = Boundary.accumulator ~filter ~sites in
      let seen = ref [||] in
      List.for_all
        (fun batch ->
          let samples = Array.map (Helpers.run_case g) (Array.of_list batch) in
          Boundary.accumulate b samples;
          seen := Array.append !seen samples;
          let got = Boundary.accumulated b and want = Boundary.infer ~filter ~sites !seen in
          Array.for_all2
            (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
            got.Boundary.thresholds want.Boundary.thresholds
          && got.Boundary.support = want.Boundary.support)
        batches)

let suite =
  [
    Alcotest.test_case "create" `Quick test_create;
    Alcotest.test_case "max aggregation (Algorithm 1)" `Quick
      test_add_masked_propagation_takes_max;
    Alcotest.test_case "zero deviations" `Quick test_zero_deviations_carry_no_evidence;
    Alcotest.test_case "coverage bounds" `Quick test_coverage_bounds_checked;
    Alcotest.test_case "filter operation" `Quick test_filter_blocks_large_deviations;
    Alcotest.test_case "min_sdc_errors" `Quick test_min_sdc_errors;
    Alcotest.test_case "infer uses only masked" `Quick test_infer_uses_only_masked;
    Alcotest.test_case "exhaustive boundary (monotone)" `Quick
      test_exhaustive_boundary_linear_program;
    Alcotest.test_case "exhaustive boundary (non-monotonic)" `Quick
      test_exhaustive_boundary_nonmonotonic_site;
    Alcotest.test_case "copy independent" `Quick test_copy_is_independent;
    Helpers.qcheck_to_alcotest prop_threshold_monotone_in_samples;
    Helpers.qcheck_to_alcotest prop_accumulator_equals_infer;
  ]
