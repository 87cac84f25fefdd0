module Jacobi = Ftb_oracle.Jacobi
module Poisson = Ftb_kernels.Poisson
module Csr = Ftb_kernels.Csr
module Golden = Ftb_trace.Golden
module Norms = Ftb_util.Norms

let config = { Jacobi.grid = 5; sweeps = 40; tolerance = 1e-4 }

let test_converges () =
  let x = Jacobi.solve_plain { config with Jacobi.sweeps = 200 } in
  let a = Poisson.matrix ~grid:config.Jacobi.grid in
  let b = Poisson.rhs ~grid:config.Jacobi.grid in
  let residual = Norms.linf (Csr.spmv a x) b in
  Alcotest.(check bool)
    (Printf.sprintf "residual small (%g)" residual)
    true (residual < 1e-6)

let test_more_sweeps_reduce_residual () =
  let residual sweeps =
    let x = Jacobi.solve_plain { config with Jacobi.sweeps } in
    let a = Poisson.matrix ~grid:config.Jacobi.grid in
    let b = Poisson.rhs ~grid:config.Jacobi.grid in
    Norms.linf (Csr.spmv a x) b
  in
  Alcotest.(check bool) "monotone improvement" true (residual 80 < residual 10)

let test_instrumented_matches_plain () =
  let golden = Golden.run (Jacobi.program config) in
  Helpers.check_close "bitwise identical" 0.
    (Norms.linf (Jacobi.solve_plain config) golden.Golden.output)

let test_site_count () =
  (* n initial stores + sweeps * n updates. *)
  let n = config.Jacobi.grid * config.Jacobi.grid in
  let golden = Golden.run (Jacobi.program config) in
  Alcotest.(check int) "site count" (n + (config.Jacobi.sweeps * n)) (Golden.sites golden)

let test_phases () =
  let golden = Golden.run (Jacobi.program config) in
  Alcotest.(check string) "init phase" "jacobi.init" (Golden.phase_of_site golden 0);
  Alcotest.(check string) "sweep phase" "jacobi.sweep"
    (Golden.phase_of_site golden (Golden.sites golden - 1))

let test_invalid_config () =
  (match Jacobi.program { config with Jacobi.grid = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grid 0 accepted");
  match Jacobi.program { config with Jacobi.sweeps = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 sweeps accepted"

let test_boundary_end_to_end () =
  (* The method works on this kernel: small exhaustive study is exact-ish. *)
  let program = Jacobi.program { Jacobi.grid = 3; sweeps = 8; tolerance = 1e-4 } in
  let context = Ftb_core.Context.prepare ~name:"jacobi" program in
  let r = Ftb_core.Study_exhaustive.run context in
  Alcotest.(check bool)
    (Printf.sprintf "approx %.4f tracks golden %.4f" r.Ftb_core.Study_exhaustive.approx_sdc
       r.Ftb_core.Study_exhaustive.golden_sdc)
    true
    (abs_float
       (r.Ftb_core.Study_exhaustive.approx_sdc -. r.Ftb_core.Study_exhaustive.golden_sdc)
    < 0.02)

let suite =
  [
    Alcotest.test_case "converges" `Quick test_converges;
    Alcotest.test_case "more sweeps reduce residual" `Quick test_more_sweeps_reduce_residual;
    Alcotest.test_case "instrumented matches plain" `Quick test_instrumented_matches_plain;
    Alcotest.test_case "site count" `Quick test_site_count;
    Alcotest.test_case "phases" `Quick test_phases;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
    Alcotest.test_case "boundary end to end" `Quick test_boundary_end_to_end;
  ]
