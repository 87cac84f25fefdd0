module Models = Ftb_inject.Models
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Rng = Ftb_util.Rng
module Bits = Ftb_util.Bits
module Study_models = Ftb_core.Study_models

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let test_cases_per_site () =
  Alcotest.(check (option int)) "64-bit" (Some 64) (Models.cases_per_site Models.Bit_flip_64);
  Alcotest.(check (option int)) "32-bit" (Some 32) (Models.cases_per_site Models.Bit_flip_32);
  Alcotest.(check (option int)) "burst" (Some 63)
    (Models.cases_per_site Models.Adjacent_burst_2);
  Alcotest.(check (option int)) "random" None
    (Models.cases_per_site (Models.Random_value { lo = 0.; hi = 1. }))

let rng () = Rng.create ~seed:1
let spec model = { Models.model; seed = 1 }

let test_bit_flip_64_matches_bits () =
  for bit = 0 to 63 do
    Alcotest.(check bool) "same as Bits.flip" true
      (Int64.equal
         (Int64.bits_of_float (Models.case_corrupt Models.default_spec ~case:bit 1.5))
         (Int64.bits_of_float (Bits.flip ~bit 1.5)))
  done

let test_burst_flips_two_bits () =
  let v = 1.5 in
  let corrupted = Models.case_corrupt (spec Models.Adjacent_burst_2) ~case:3 v in
  let diff = Int64.logxor (Int64.bits_of_float corrupted) (Int64.bits_of_float v) in
  Alcotest.(check int64) "bits 3 and 4 flipped" (Int64.of_int 0b11000) diff

let test_random_value_in_range () =
  let spec = spec (Models.Random_value { lo = -2.; hi = 3. }) in
  for case = 0 to 199 do
    let v = Models.case_corrupt spec ~case 42. in
    Alcotest.(check bool) "in range" true (v >= -2. && v < 3.)
  done

let test_case_bounds_checked () =
  (* A case past the last site, or a negative one, names no injection: it
     is refused before any kernel runs, never classified. *)
  let g = Lazy.force golden in
  List.iter
    (fun model ->
      let spec = spec model in
      let past = Models.total_cases spec ~sites:(Golden.sites g) in
      (match Ftb_inject.Ground_truth.case_byte_model spec g past with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Models.name model ^ ": case past the last site accepted"));
      match Ftb_inject.Ground_truth.case_byte_model spec g (-1) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail (Models.name model ^ ": negative case accepted"))
    [ Models.Bit_flip_32; Models.Adjacent_burst_2 ]

let sample ?(specs = [ Models.default_spec ]) ~samples_per_site g =
  Study_models.sample ~samples_per_site (rng ()) ~name:"linear" g specs

let only_row (r : Study_models.result) =
  match r.Study_models.rows with
  | [ row ] -> row
  | rows -> Alcotest.failf "%d rows for one spec" (List.length rows)

let test_monte_carlo_counts () =
  let g = Lazy.force golden in
  let row = only_row (sample ~samples_per_site:3 g) in
  Alcotest.(check int) "3 runs per site" (3 * Helpers.linear_sites) row.Study_models.cases;
  Helpers.check_close ~eps:1e-12 "ratios partition the runs" 1.
    (row.Study_models.masked_ratio +. row.Study_models.sdc_ratio
   +. row.Study_models.crash_ratio);
  Alcotest.(check bool) "deterministic given the RNG" true
    (sample ~samples_per_site:3 g = sample ~samples_per_site:3 g);
  match sample ~samples_per_site:0 g with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "an empty budget was accepted"

let test_discrete_model_exhausts_small_budget () =
  (* samples_per_site >= cases: every case of the model runs once, and
     the rows agree exactly with the exhaustive study. *)
  let g = Lazy.force golden in
  let specs = [ Models.default_spec; spec Models.Bit_flip_32 ] in
  let sampled = sample ~specs ~samples_per_site:64 g in
  List.iter2
    (fun (row : Study_models.row) (exhaustive : Study_models.row) ->
      Alcotest.(check int) "full enumeration" exhaustive.Study_models.cases row.Study_models.cases;
      Alcotest.(check bool) "same row as the exhaustive study" true (row = exhaustive))
    sampled.Study_models.rows (Study_models.run ~name:"linear" g specs).Study_models.rows

let test_random_value_mostly_sdc_on_sensitive_program () =
  (* Replacing a value by something in [-1000,1000) on a program that
     tolerates 0.5 should overwhelmingly corrupt. *)
  let g = Lazy.force golden in
  let row =
    only_row
      (sample ~specs:[ spec (Models.Random_value { lo = -1000.; hi = 1000. }) ]
         ~samples_per_site:8 g)
  in
  Alcotest.(check int) "8 of the 64 replicas per site" (8 * Helpers.linear_sites)
    row.Study_models.cases;
  Alcotest.(check bool)
    (Printf.sprintf "sdc ratio high (%.2f)" row.Study_models.sdc_ratio)
    true (row.Study_models.sdc_ratio > 0.9)

let test_compare_models_order () =
  let g = Lazy.force golden in
  let specs = Study_models.default_specs ~seed:1 in
  let rows = (sample ~specs ~samples_per_site:2 g).Study_models.rows in
  Alcotest.(check int) "one row per model" (List.length specs) (List.length rows);
  List.iter2
    (fun spec (row : Study_models.row) ->
      Alcotest.(check string) "order preserved" (Models.spec_name spec)
        (Models.spec_name row.Study_models.model))
    specs rows

(* A kernel that raises a plain OCaml exception, not [Ctx.Crash], when its
   value drops below 1 (a flip of one of 1.5's exponent bits). *)
let raising_program () =
  let statics = Ftb_trace.Static.create_table () in
  let tag = Ftb_trace.Static.register statics ~phase:"raise.load" ~label:"x" in
  Ftb_trace.Program.make ~name:"raising" ~description:"raises on a small value"
    ~tolerance:0.5 ~statics (fun ctx ->
      let x = Ftb_trace.Ctx.record ctx ~tag 1.5 in
      if x < 1. then failwith "index out of range";
      [| x |])

let test_sampled_exception_is_a_crash () =
  let g = Golden.run (raising_program ()) in
  let row = only_row (sample ~samples_per_site:64 g) in
  let exn = row.Study_models.crash_breakdown.Ftb_inject.Ground_truth.exn in
  Alcotest.(check bool) (Printf.sprintf "exceptions tallied as crashes (%d)" exn) true
    (exn > 0 && row.Study_models.crash_ratio > 0.)

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
  (* An always-+10 corruption at site 0 must be SDC on the linear program
     (gain 1, tolerance 0.5). *)
  let g = Lazy.force golden in
  let r = Runner.run_outcome_custom_contained g ~site:0 ~corrupt:(fun v -> v +. 10.) in
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
    Alcotest.test_case "sampled kernel exception is a crash" `Quick
      test_sampled_exception_is_a_crash;
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
