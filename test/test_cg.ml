module Cg = Ftb_oracle.Cg
module Poisson = Ftb_kernels.Poisson
module Csr = Ftb_kernels.Csr
module Golden = Ftb_trace.Golden
module Norms = Ftb_util.Norms

let config = { Cg.grid = 5; iterations = 10; tolerance = 1e-4 }

let test_solves_poisson () =
  let a = Poisson.matrix ~grid:config.Cg.grid in
  let b = Poisson.rhs ~grid:config.Cg.grid in
  let x = Cg.solve_plain a b ~iterations:config.Cg.iterations in
  let residual = Norms.linf (Csr.spmv a x) b in
  Alcotest.(check bool)
    (Printf.sprintf "residual small (%g)" residual)
    true (residual < 1e-8)

let test_instrumented_matches_plain () =
  let a = Poisson.matrix ~grid:config.Cg.grid in
  let b = Poisson.rhs ~grid:config.Cg.grid in
  let plain = Cg.solve_plain a b ~iterations:config.Cg.iterations in
  let golden = Golden.run (Cg.program config) in
  Helpers.check_close "bitwise-identical solutions" 0.
    (Norms.linf plain golden.Golden.output)

let test_site_count () =
  (* init: 3n loads + rsold; per iteration: n spmv + pq + alpha + n x +
     n r + rsnew + beta + n p = 4n + 4. *)
  let n = config.Cg.grid * config.Cg.grid in
  let expected = (3 * n) + 1 + (config.Cg.iterations * ((4 * n) + 4)) in
  let golden = Golden.run (Cg.program config) in
  Alcotest.(check int) "dynamic instruction count" expected (Golden.sites golden)

let test_phases_present () =
  let golden = Golden.run (Cg.program config) in
  let phases = Ftb_trace.Static.phases (Golden.run (Cg.program config)).Golden.program.Ftb_trace.Program.statics in
  ignore golden;
  List.iter
    (fun p ->
      Alcotest.(check bool) (Printf.sprintf "phase %s registered" p) true
        (List.mem p phases))
    [ "cg.init"; "cg.spmv"; "cg.reduce"; "cg.update" ]

let test_more_iterations_reduce_residual () =
  let a = Poisson.matrix ~grid:6 in
  let b = Poisson.rhs ~grid:6 in
  let res k = Norms.linf (Csr.spmv a (Cg.solve_plain a b ~iterations:k)) b in
  Alcotest.(check bool) "monotone improvement 2->8 iterations" true (res 8 < res 2)

let test_invalid_config () =
  (match Cg.program { config with Cg.grid = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "grid 0 accepted");
  match Cg.program { config with Cg.iterations = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 iterations accepted"

let suite =
  [
    Alcotest.test_case "solves Poisson" `Quick test_solves_poisson;
    Alcotest.test_case "instrumented matches plain" `Quick test_instrumented_matches_plain;
    Alcotest.test_case "site count formula" `Quick test_site_count;
    Alcotest.test_case "phases present" `Quick test_phases_present;
    Alcotest.test_case "iterations reduce residual" `Quick
      test_more_iterations_reduce_residual;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
  ]
