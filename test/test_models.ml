module Models = Ftb_inject.Models
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Rng = Ftb_util.Rng
module Bits = Ftb_util.Bits

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let test_cases_per_site () =
  Alcotest.(check (option int)) "64-bit" (Some 64) (Models.cases_per_site Models.Bit_flip_64);
  Alcotest.(check (option int)) "32-bit" (Some 32) (Models.cases_per_site Models.Bit_flip_32);
  Alcotest.(check (option int)) "burst" (Some 63)
    (Models.cases_per_site Models.Adjacent_burst_2);
  Alcotest.(check (option int)) "random" None
    (Models.cases_per_site (Models.Random_value { lo = 0.; hi = 1. }))

let rng () = Rng.create ~seed:1

let test_bit_flip_64_matches_bits () =
  for bit = 0 to 63 do
    Alcotest.(check bool) "same as Bits.flip" true
      (Int64.equal
         (Int64.bits_of_float (Models.corrupt Models.Bit_flip_64 ~rng:(rng ()) ~case:bit 1.5))
         (Int64.bits_of_float (Bits.flip ~bit 1.5)))
  done

let test_burst_flips_two_bits () =
  let v = 1.5 in
  let corrupted = Models.corrupt Models.Adjacent_burst_2 ~rng:(rng ()) ~case:3 v in
  let diff = Int64.logxor (Int64.bits_of_float corrupted) (Int64.bits_of_float v) in
  Alcotest.(check int64) "bits 3 and 4 flipped" (Int64.of_int 0b11000) diff

let test_random_value_in_range () =
  let model = Models.Random_value { lo = -2.; hi = 3. } in
  let r = rng () in
  for _ = 1 to 200 do
    let v = Models.corrupt model ~rng:r ~case:0 42. in
    Alcotest.(check bool) "in range" true (v >= -2. && v < 3.)
  done

let test_case_bounds_checked () =
  (match Models.corrupt Models.Bit_flip_32 ~rng:(rng ()) ~case:32 1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "case 32 accepted for 32-bit model");
  match Models.corrupt Models.Adjacent_burst_2 ~rng:(rng ()) ~case:63 1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "case 63 accepted for burst model"

let test_monte_carlo_counts () =
  let g = Lazy.force golden in
  let campaign = Models.monte_carlo ~samples_per_site:3 (rng ()) g Models.Bit_flip_64 in
  Alcotest.(check int) "3 runs per site" (3 * Helpers.linear_sites)
    campaign.Models.total.Models.runs;
  let t = campaign.Models.total in
  Alcotest.(check int) "partition" t.Models.runs (t.Models.masked + t.Models.sdc + t.Models.crash);
  Helpers.check_close ~eps:1e-12 "ratios consistent" 1.
    (campaign.Models.masked_ratio +. campaign.Models.sdc_ratio +. campaign.Models.crash_ratio)

let test_discrete_model_exhausts_small_budget () =
  (* samples_per_site >= cases: every case of the model runs once. *)
  let g = Lazy.force golden in
  let campaign = Models.monte_carlo ~samples_per_site:64 (rng ()) g Models.Bit_flip_64 in
  Alcotest.(check int) "full enumeration" (64 * Helpers.linear_sites)
    campaign.Models.total.Models.runs;
  (* And then it must agree exactly with the exhaustive campaign. *)
  let gt = Ftb_inject.Ground_truth.run g in
  Helpers.check_close ~eps:1e-12 "matches ground truth sdc"
    (Ftb_inject.Ground_truth.sdc_ratio gt) campaign.Models.sdc_ratio

let test_random_value_mostly_sdc_on_sensitive_program () =
  (* Replacing a value by something in [-1000,1000) on a program that
     tolerates 0.5 should overwhelmingly corrupt. *)
  let g = Lazy.force golden in
  let campaign =
    Models.monte_carlo ~samples_per_site:8 (rng ()) g
      (Models.Random_value { lo = -1000.; hi = 1000. })
  in
  Alcotest.(check bool)
    (Printf.sprintf "sdc ratio high (%.2f)" campaign.Models.sdc_ratio)
    true (campaign.Models.sdc_ratio > 0.9)

let test_compare_models_order () =
  let g = Lazy.force golden in
  let campaigns = Models.compare_models ~samples_per_site:2 (rng ()) g Models.all_discrete in
  Alcotest.(check int) "one campaign per model" (List.length Models.all_discrete)
    (List.length campaigns);
  List.iter2
    (fun model (c : Models.campaign) ->
      Alcotest.(check string) "order preserved" (Models.name model) (Models.name c.Models.model))
    Models.all_discrete campaigns

(* ------------------------------------------------------------------ *)
(* Properties of the corruption functions and the spec codec. *)

(* Finite doubles spanning many binades; the flip properties are bitwise,
   so the generator only needs to avoid NaN/Inf (float equality on the
   bit pattern breaks there). *)
let arb_finite =
  QCheck.make
    ~print:(fun (m, e, bit) -> Printf.sprintf "ldexp %h %d, bit %d" m e bit)
    QCheck.Gen.(triple (float_range (-1.) 1.) (int_range (-60) 60) (int_bound 63))

let bits_of v = Int64.bits_of_float v

let prop_bit_flip_involution =
  QCheck.Test.make ~name:"bit-flip-64: corrupting twice restores the value" ~count:500
    arb_finite
    (fun (m, e, bit) ->
      let v = Float.ldexp m e in
      let spec = { Models.model = Models.Bit_flip_64; seed = 0 } in
      let corrupt = Models.case_corrupt spec ~case:bit in
      Int64.equal (bits_of (corrupt (corrupt v))) (bits_of v))

(* flip32 rounds through single precision, so the involution holds
   exactly on values already representable in float32 — unless the first
   flip makes a NaN. A flipped exponent bit can give a signalling NaN;
   the round trip through double quiets it (sets float32 bit 22), so the
   second flip restores the value with that one bit set. *)
let float32_of m e = Int32.float_of_bits (Int32.bits_of_float (Float.ldexp m e))

let flip32_involution_holds v bit =
  let spec = { Models.model = Models.Bit_flip_32; seed = 0 } in
  let corrupt = Models.case_corrupt spec ~case:bit in
  let once = corrupt v in
  let twice = corrupt once in
  if Float.is_nan once then
    Int32.equal (Int32.bits_of_float twice) (Int32.logor (Int32.bits_of_float v) 0x0040_0000l)
  else Int64.equal (bits_of twice) (bits_of v)

let test_bit_flip32_signalling_nan () =
  (* The QCheck counterexample: float32 bit 30 of ~1.2 gives a signalling
     NaN, and the second flip gives 0x3FDAA116, not the 0x3F9AA116 the
     value started from. *)
  let v = float32_of 0x1.35422c4fee0cp-4 4 in
  let spec = { Models.model = Models.Bit_flip_32; seed = 0 } in
  let corrupt = Models.case_corrupt spec ~case:30 in
  Alcotest.(check bool) "first flip is a NaN" true (Float.is_nan (corrupt v));
  Alcotest.(check int32) "second flip sets only the quiet bit" 0x3FDA_A116l
    (Int32.bits_of_float (corrupt (corrupt v)));
  Alcotest.(check bool) "involution property accepts it" true (flip32_involution_holds v 30)

let prop_bit_flip32_involution =
  QCheck.Test.make
    ~name:"bit-flip-32: involution on float32-representable values" ~count:500
    arb_finite
    (fun (m, e, bit) ->
      let bit = bit land 31 in
      flip32_involution_holds (float32_of m e) bit)

let prop_burst_is_two_flips =
  QCheck.Test.make ~name:"adjacent-burst-2 = two single bit flips" ~count:500 arb_finite
    (fun (m, e, bit) ->
      let v = Float.ldexp m e in
      let bit = min bit 62 in
      let spec = { Models.model = Models.Adjacent_burst_2; seed = 0 } in
      let burst = Models.case_corrupt spec ~case:bit in
      Int64.equal
        (bits_of (burst v))
        (bits_of (Bits.flip ~bit (Bits.flip ~bit:(bit + 1) v))))

let arb_random_spec =
  QCheck.make
    ~print:(fun (lo, span, seed, case) ->
      Printf.sprintf "lo %h, span %h, seed %d, case %d" lo span seed case)
    QCheck.Gen.(
      quad (float_range (-1e6) 1e6) (float_range 1e-3 1e6) (int_range 0 10000)
        (int_bound 4095))

let prop_random_value_in_range =
  QCheck.Test.make ~name:"random-value lands in [lo, hi)" ~count:500 arb_random_spec
    (fun (lo, span, seed, case) ->
      let hi = lo +. span in
      let spec = { Models.model = Models.Random_value { lo; hi }; seed } in
      let v = Models.case_corrupt spec ~case 42. in
      v >= lo && v < hi)

let prop_random_value_deterministic =
  QCheck.Test.make
    ~name:"random-value: deterministic given (seed, case), independent of order"
    ~count:500 arb_random_spec
    (fun (lo, span, seed, case) ->
      let hi = lo +. span in
      let spec = { Models.model = Models.Random_value { lo; hi }; seed } in
      let draw () = Models.case_corrupt spec ~case 42. in
      (* Replays — same shard, a re-leased shard, a resumed daemon — must
         reproduce the draw exactly; interleaving other cases in between
         must not perturb it. *)
      let first = draw () in
      let _noise = Models.case_corrupt spec ~case:(case + 1) 42. in
      Int64.equal (bits_of first) (bits_of (draw ()))
      && not
           (Int64.equal
              (bits_of first)
              (bits_of
                 (Models.case_corrupt
                    { spec with Models.seed = seed + 1 }
                    ~case 42.))))

let prop_spec_string_roundtrip =
  let arb =
    QCheck.make
      ~print:(fun spec -> Models.spec_to_string spec)
      QCheck.Gen.(
        map2
          (fun pick (lo, span, seed) ->
            match pick with
            | 0 -> { Models.model = Models.Bit_flip_64; seed = 0 }
            | 1 -> { Models.model = Models.Bit_flip_32; seed = 0 }
            | 2 -> { Models.model = Models.Adjacent_burst_2; seed = 0 }
            | _ ->
                { Models.model = Models.Random_value { lo; hi = lo +. span }; seed })
          (int_bound 3)
          (triple (float_range (-1e6) 1e6) (float_range 1e-3 1e6) (int_range 0 10000)))
  in
  QCheck.Test.make ~name:"spec codec round-trips (exactly, incl. seed)" ~count:300 arb
    (fun spec ->
      match Models.spec_of_string (Models.spec_to_string spec) with
      | Ok spec' -> spec' = spec
      | Error _ -> false)

let test_spec_of_string_errors () =
  List.iter
    (fun s ->
      match Models.spec_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "junk model %S accepted" s))
    [ ""; "bit-flip-16"; "random-value"; "random-value:1"; "random-value:2:1";
      "random-value:0:1:x"; "random-value:0:1:2:3" ];
  (* Decimal floats are accepted too (the CLI form). *)
  match Models.spec_of_string "random-value:-10.5:10:7" with
  | Ok { Models.model = Models.Random_value { lo; hi }; seed } ->
      Alcotest.(check (float 0.)) "lo" (-10.5) lo;
      Alcotest.(check (float 0.)) "hi" 10. hi;
      Alcotest.(check int) "seed" 7 seed
  | Ok _ | Error _ -> Alcotest.fail "decimal random-value form rejected"

let test_spec_equal_semantics () =
  let rv seed = { Models.model = Models.Random_value { lo = 0.; hi = 1. }; seed } in
  Alcotest.(check bool) "discrete specs ignore seed" true
    (Models.spec_equal
       { Models.model = Models.Bit_flip_32; seed = 1 }
       { Models.model = Models.Bit_flip_32; seed = 2 });
  Alcotest.(check bool) "stochastic specs compare seeds" false
    (Models.spec_equal (rv 1) (rv 2));
  Alcotest.(check bool) "stochastic same seed equal" true (Models.spec_equal (rv 3) (rv 3))

let test_custom_runner_injects () =
  (* run_outcome_custom with an always-+10 corruption at site 0 must be SDC
     on the linear program (gain 1, tolerance 0.5). *)
  let g = Lazy.force golden in
  let r = Runner.run_outcome_custom g ~site:0 ~corrupt:(fun v -> v +. 10.) in
  Alcotest.(check bool) "sdc" true (Runner.outcome_equal r.Runner.outcome Runner.Sdc);
  Helpers.check_close "injected error" 10. r.Runner.injected_error;
  Helpers.check_close "output error" 10. r.Runner.output_error

let suite =
  [
    Alcotest.test_case "cases per site" `Quick test_cases_per_site;
    Alcotest.test_case "bit-flip-64 matches Bits" `Quick test_bit_flip_64_matches_bits;
    Alcotest.test_case "burst flips two bits" `Quick test_burst_flips_two_bits;
    Alcotest.test_case "random value in range" `Quick test_random_value_in_range;
    Alcotest.test_case "case bounds checked" `Quick test_case_bounds_checked;
    Alcotest.test_case "monte carlo counts" `Quick test_monte_carlo_counts;
    Alcotest.test_case "full budget = exhaustive" `Quick
      test_discrete_model_exhausts_small_budget;
    Alcotest.test_case "random value mostly SDC" `Quick
      test_random_value_mostly_sdc_on_sensitive_program;
    Alcotest.test_case "compare models order" `Quick test_compare_models_order;
    Alcotest.test_case "custom runner injects" `Quick test_custom_runner_injects;
    Helpers.qcheck_to_alcotest prop_bit_flip_involution;
    Helpers.qcheck_to_alcotest prop_bit_flip32_involution;
    Alcotest.test_case "bit-flip-32: signalling NaN counterexample" `Quick
      test_bit_flip32_signalling_nan;
    Helpers.qcheck_to_alcotest prop_burst_is_two_flips;
    Helpers.qcheck_to_alcotest prop_random_value_in_range;
    Helpers.qcheck_to_alcotest prop_random_value_deterministic;
    Helpers.qcheck_to_alcotest prop_spec_string_roundtrip;
    Alcotest.test_case "spec codec rejects junk" `Quick test_spec_of_string_errors;
    Alcotest.test_case "spec equality semantics" `Quick test_spec_equal_semantics;
  ]
