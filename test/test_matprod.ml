module Matprod = Ftb_oracle.Matprod
module Golden = Ftb_trace.Golden
module Norms = Ftb_util.Norms

let mv_config = { Matprod.n = 8; reps = 3; seed = 5; tolerance = 1e-3 }
let mm_config = { Matprod.n = 5; seed = 9; tolerance = 1e-3 }

let test_matvec_instrumented_matches_plain () =
  let golden = Golden.run (Matprod.matvec_program mv_config) in
  Helpers.check_close "bitwise identical" 0.
    (Norms.linf (Matprod.matvec_plain mv_config) golden.Golden.output)

let test_matvec_site_count () =
  (* n input loads + reps * n products. *)
  let golden = Golden.run (Matprod.matvec_program mv_config) in
  Alcotest.(check int) "site count" (8 + (3 * 8)) (Golden.sites golden)

let test_matvec_nonexpansive () =
  (* The row-normalised matrix keeps the iterates bounded by the input. *)
  let out = Matprod.matvec_plain { mv_config with Matprod.reps = 10 } in
  Alcotest.(check bool) "bounded orbit" true (Norms.max_abs out <= 1.0 +. 1e-12)

let test_matmul_instrumented_matches_plain () =
  let golden = Golden.run (Matprod.matmul_program mm_config) in
  Helpers.check_close "bitwise identical" 0.
    (Norms.linf (Matprod.matmul_plain mm_config) golden.Golden.output)

let test_matmul_site_count () =
  (* 2 n^2 input loads + n^2 outputs. *)
  let golden = Golden.run (Matprod.matmul_program mm_config) in
  Alcotest.(check int) "site count" (3 * 5 * 5) (Golden.sites golden)

let test_matmul_matches_dense () =
  let out = Matprod.matmul_plain mm_config in
  Alcotest.(check int) "output size" 25 (Array.length out)

let test_invalid_configs () =
  (match Matprod.matvec_program { mv_config with Matprod.n = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 accepted");
  (match Matprod.matvec_program { mv_config with Matprod.reps = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reps = 0 accepted");
  match Matprod.matmul_program { mm_config with Matprod.n = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "matmul n = 0 accepted"

(* Monotonicity (§5): for the linear mat-vec chain, output error scales
   exactly linearly with the injected error, so doubling the error doubles
   the output deviation. *)
let test_matvec_error_linearity () =
  let golden = Golden.run (Matprod.matvec_program mv_config) in
  let site = 2 (* an input load *) in
  let deviation bit =
    let p = Ftb_trace.Runner.run_propagation golden (Ftb_trace.Fault.make ~site ~bit) in
    (p.Ftb_trace.Runner.result.Ftb_trace.Runner.injected_error,
     p.Ftb_trace.Runner.result.Ftb_trace.Runner.output_error)
  in
  (* Two mantissa bits with a 4x error ratio. *)
  let e1, out1 = deviation 40 in
  let e2, out2 = deviation 42 in
  Alcotest.(check bool) "errors differ" true (e2 > e1);
  (match (out1, out2) with
  | 0., _ | _, 0. -> Alcotest.fail "expected non-zero output deviations"
  | _ ->
      Helpers.check_close ~eps:1e-6 "output error ratio = injected error ratio"
        (e2 /. e1) (out2 /. out1))

let suite =
  [
    Alcotest.test_case "matvec instrumented matches plain" `Quick
      test_matvec_instrumented_matches_plain;
    Alcotest.test_case "matvec site count" `Quick test_matvec_site_count;
    Alcotest.test_case "matvec non-expansive" `Quick test_matvec_nonexpansive;
    Alcotest.test_case "matmul instrumented matches plain" `Quick
      test_matmul_instrumented_matches_plain;
    Alcotest.test_case "matmul site count" `Quick test_matmul_site_count;
    Alcotest.test_case "matmul output size" `Quick test_matmul_matches_dense;
    Alcotest.test_case "invalid configs" `Quick test_invalid_configs;
    Alcotest.test_case "matvec error linearity (monotonic, sec. 5)" `Quick
      test_matvec_error_linearity;
  ]
