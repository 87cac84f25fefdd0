module Fft = Ftb_oracle.Fft
module Golden = Ftb_trace.Golden
module Norms = Ftb_util.Norms
module Rng = Ftb_util.Rng

let config = { Fft.n1 = 8; n2 = 4; seed = 11; tolerance = 1.0 }

let random_signal ~len ~seed =
  let rng = Rng.create ~seed in
  {
    Fft.re = Array.init len (fun _ -> -1. +. Rng.float rng 2.);
    Fft.im = Array.init len (fun _ -> -1. +. Rng.float rng 2.);
  }

let check_complex_close msg eps a b =
  Alcotest.(check bool)
    (Printf.sprintf "%s (re %g, im %g)" msg
       (Norms.linf a.Fft.re b.Fft.re) (Norms.linf a.Fft.im b.Fft.im))
    true
    (Norms.linf a.Fft.re b.Fft.re < eps && Norms.linf a.Fft.im b.Fft.im < eps)

let test_fft_matches_naive_dft () =
  List.iter
    (fun len ->
      let x = random_signal ~len ~seed:len in
      check_complex_close
        (Printf.sprintf "fft vs dft (len %d)" len)
        1e-10 (Fft.fft_plain x) (Fft.dft_naive x))
    [ 1; 2; 4; 8; 16; 32 ]

let test_fft_rejects_non_power_of_two () =
  match Fft.fft_plain (random_signal ~len:6 ~seed:1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "length 6 accepted"

let test_six_step_matches_naive_dft () =
  let result = Fft.six_step_plain config in
  let expected = Fft.dft_naive (Fft.input_signal config) in
  check_complex_close "six-step vs dft" 1e-9 result expected

let test_six_step_rectangular () =
  (* n1 <> n2 exercises both transpose orientations. *)
  let cfg = { Fft.n1 = 4; n2 = 8; seed = 2; tolerance = 1.0 } in
  check_complex_close "4x8 six-step" 1e-9 (Fft.six_step_plain cfg)
    (Fft.dft_naive (Fft.input_signal cfg))

let test_instrumented_matches_plain () =
  let golden = Golden.run (Fft.program config) in
  let plain = Fft.six_step_plain config in
  let expected = Array.append plain.Fft.re plain.Fft.im in
  Helpers.check_close "bitwise-identical spectra" 0. (Norms.linf expected golden.Golden.output)

let test_fft_linearity () =
  let a = random_signal ~len:16 ~seed:5 in
  let b = random_signal ~len:16 ~seed:6 in
  let sum =
    { Fft.re = Array.map2 ( +. ) a.Fft.re b.Fft.re;
      Fft.im = Array.map2 ( +. ) a.Fft.im b.Fft.im }
  in
  let fa = Fft.fft_plain a and fb = Fft.fft_plain b and fsum = Fft.fft_plain sum in
  let combined =
    { Fft.re = Array.map2 ( +. ) fa.Fft.re fb.Fft.re;
      Fft.im = Array.map2 ( +. ) fa.Fft.im fb.Fft.im }
  in
  check_complex_close "FFT(a+b) = FFT(a)+FFT(b)" 1e-10 fsum combined

let test_parseval () =
  (* sum |x|^2 = (1/n) sum |X|^2 for the unnormalised forward transform. *)
  let x = random_signal ~len:32 ~seed:7 in
  let f = Fft.fft_plain x in
  let energy c =
    let acc = ref 0. in
    Array.iteri (fun i re -> acc := !acc +. (re *. re) +. (c.Fft.im.(i) *. c.Fft.im.(i))) c.Fft.re;
    !acc
  in
  Helpers.check_close ~eps:1e-8 "Parseval" (energy x) (energy f /. 32.)

let test_dc_signal () =
  (* A constant signal transforms to a single DC spike of value n. *)
  let n = 16 in
  let x = { Fft.re = Array.make n 1.; Fft.im = Array.make n 0. } in
  let f = Fft.fft_plain x in
  Helpers.check_close ~eps:1e-10 "DC bin" (float_of_int n) f.Fft.re.(0);
  for k = 1 to n - 1 do
    Alcotest.(check bool) "other bins vanish" true
      (abs_float f.Fft.re.(k) < 1e-9 && abs_float f.Fft.im.(k) < 1e-9)
  done

let test_invalid_config () =
  match Fft.program { config with Fft.n1 = 6 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-power-of-two n1 accepted"

let prop_six_step_equals_direct_fft =
  QCheck.Test.make ~name:"six-step equals direct radix-2 FFT" ~count:20
    QCheck.(pair (int_range 1 4) (int_range 1 4))
    (fun (log_n1, log_n2) ->
      let cfg =
        { Fft.n1 = 1 lsl log_n1; n2 = 1 lsl log_n2; seed = log_n1 + (10 * log_n2);
          tolerance = 1.0 }
      in
      let six = Fft.six_step_plain cfg in
      let direct = Fft.fft_plain (Fft.input_signal cfg) in
      Norms.linf six.Fft.re direct.Fft.re < 1e-9 && Norms.linf six.Fft.im direct.Fft.im < 1e-9)

let suite =
  [
    Alcotest.test_case "fft matches naive dft" `Quick test_fft_matches_naive_dft;
    Alcotest.test_case "non-power-of-two rejected" `Quick test_fft_rejects_non_power_of_two;
    Alcotest.test_case "six-step matches naive dft" `Quick test_six_step_matches_naive_dft;
    Alcotest.test_case "six-step rectangular" `Quick test_six_step_rectangular;
    Alcotest.test_case "instrumented matches plain" `Quick test_instrumented_matches_plain;
    Alcotest.test_case "linearity" `Quick test_fft_linearity;
    Alcotest.test_case "Parseval" `Quick test_parseval;
    Alcotest.test_case "DC signal" `Quick test_dc_signal;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
    Helpers.qcheck_to_alcotest prop_six_step_equals_direct_fft;
  ]
