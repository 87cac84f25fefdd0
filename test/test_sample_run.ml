module Sample_run = Ftb_inject.Sample_run
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault
module Rng = Ftb_util.Rng

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let test_masked_sample_keeps_propagation () =
  (* Low mantissa flip: masked, with propagation data. *)
  let s = Helpers.run_case (Lazy.force golden) (Fault.to_case (Fault.make ~site:0 ~bit:5)) in
  Alcotest.(check bool) "masked" true (Runner.outcome_equal s.Sample_run.outcome Runner.Masked);
  match s.Sample_run.propagation with
  | Some (sites, deviations) ->
      (* The sparse pairs are the traced run's non-zero deviations, from
         the fault site to the last site. *)
      let dense =
        (Runner.run_propagation (Lazy.force golden) (Fault.make ~site:0 ~bit:5))
          .Runner.deviations
      in
      let expected = List.filter (fun j -> dense.(j) <> 0.) (List.init (Array.length dense) Fun.id) in
      Alcotest.(check int) "starts at the fault site" 0 sites.(0);
      Alcotest.(check int) "covers to the end" (Helpers.linear_sites - 1)
        sites.(Array.length sites - 1);
      Alcotest.(check (list int)) "exactly the non-zero sites" expected (Array.to_list sites);
      Alcotest.(check bool) "deviations bit-identical" true
        (Array.for_all2
           (fun j d -> Int64.equal (Int64.bits_of_float dense.(j)) (Int64.bits_of_float d))
           sites deviations)
  | None -> Alcotest.fail "masked sample lost its propagation data"

let test_sdc_sample_drops_propagation () =
  let s =
    Helpers.run_case (Lazy.force golden) (Fault.to_case (Fault.make ~site:0 ~bit:63))
  in
  Alcotest.(check bool) "sdc" true (Runner.outcome_equal s.Sample_run.outcome Runner.Sdc);
  Alcotest.(check bool) "no propagation kept" true (s.Sample_run.propagation = None);
  Helpers.check_close "injected error kept" 2. s.Sample_run.injected_error

let test_run_cases_order () =
  let cases = [| 5; 1; 130 |] in
  let samples = Sample_run.run_cases (Lazy.force golden) cases in
  Alcotest.(check int) "one sample per case" 3 (Array.length samples);
  Array.iteri
    (fun i s ->
      Alcotest.(check int) "input order preserved" cases.(i)
        (Fault.to_case s.Sample_run.fault))
    samples

let test_draw_uniform () =
  let g = Lazy.force golden in
  let rng = Rng.create ~seed:1 in
  let cases = Sample_run.draw_uniform rng g ~fraction:0.1 in
  let expected = int_of_float (Float.ceil (0.1 *. float_of_int (Golden.cases g))) in
  Alcotest.(check int) "ceil(fraction * cases)" expected (Array.length cases);
  let module S = Set.Make (Int) in
  Alcotest.(check int) "distinct" expected (S.cardinal (S.of_list (Array.to_list cases)));
  (match Sample_run.draw_uniform rng g ~fraction:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fraction 0 accepted");
  (* fraction 1 draws everything *)
  Alcotest.(check int) "full draw" (Golden.cases g)
    (Array.length (Sample_run.draw_uniform rng g ~fraction:1.))

let test_tiny_fraction_draws_at_least_one () =
  let g = Lazy.force golden in
  let rng = Rng.create ~seed:2 in
  Alcotest.(check bool) "at least one sample" true
    (Array.length (Sample_run.draw_uniform rng g ~fraction:1e-9) >= 1)

let test_count_outcomes () =
  let g = Lazy.force golden in
  let samples =
    Sample_run.run_cases g (Array.init (Golden.cases g) Fun.id)
  in
  let masked, sdc, crash = Sample_run.count_outcomes samples in
  Alcotest.(check int) "partition" (Golden.cases g) (masked + sdc + crash);
  Alcotest.(check bool) "has masked" true (masked > 0);
  Alcotest.(check bool) "has sdc" true (sdc > 0)

let test_outcome_counts_match_propagation_sampler () =
  (* Sample jobs classify outcome-only and contained; on a catalogue
     kernel, under the bit-flip-64 model and the daemon's fuel, that must
     count exactly what the propagation sampler counts on the same draw. *)
  let g = Golden.run (Ftb_kernels.Suite.find "jacobi") in
  let fuel = 10_000_000 and fraction = 0.02 in
  let drawn = Sample_run.draw_uniform (Rng.create ~seed:7) g ~fraction in
  let cases =
    Sample_run.draw_uniform_model (Rng.create ~seed:7) Ftb_inject.Models.default_spec g
      ~fraction
  in
  Alcotest.(check (array int)) "same draw" drawn cases;
  let expected = Sample_run.count_outcomes (Sample_run.run_cases ~fuel g drawn) in
  let counted = Sample_run.count_cases_model ~fuel Ftb_inject.Models.default_spec g cases in
  Alcotest.(check (triple int int int)) "same masked/sdc/crash" expected counted

let suite =
  [
    Alcotest.test_case "masked sample keeps propagation" `Quick
      test_masked_sample_keeps_propagation;
    Alcotest.test_case "sdc sample drops propagation" `Quick test_sdc_sample_drops_propagation;
    Alcotest.test_case "run_cases order" `Quick test_run_cases_order;
    Alcotest.test_case "draw_uniform" `Quick test_draw_uniform;
    Alcotest.test_case "tiny fraction draws one" `Quick test_tiny_fraction_draws_at_least_one;
    Alcotest.test_case "count_outcomes" `Quick test_count_outcomes;
    Alcotest.test_case "outcome-only counts = propagation counts (jacobi)" `Quick
      test_outcome_counts_match_propagation_sampler;
  ]
