module Gemm = Ftb_oracle.Gemm
module Matprod = Ftb_oracle.Matprod
module Dense = Ftb_kernels.Dense
module Golden = Ftb_trace.Golden
module Norms = Ftb_util.Norms
module Rng = Ftb_util.Rng

let config = { Gemm.n = 8; block = 3; seed = 21; tolerance = 1e-3 }

let reference config =
  (* Recompute the same inputs and multiply densely. *)
  let rng = Rng.create ~seed:config.Gemm.seed in
  let a = Dense.random rng ~rows:config.Gemm.n ~cols:config.Gemm.n ~lo:(-1.) ~hi:1. in
  let b = Dense.random rng ~rows:config.Gemm.n ~cols:config.Gemm.n ~lo:(-1.) ~hi:1. in
  Dense.flatten (Dense.matmul a b)

let test_matches_dense_multiply () =
  let blocked = Gemm.multiply_plain config in
  Alcotest.(check bool) "blocked = dense (up to rounding)" true
    (Norms.linf blocked (reference config) < 1e-12)

let test_block_size_invariance () =
  let full_block = Gemm.multiply_plain { config with Gemm.block = 8 } in
  List.iter
    (fun block ->
      let blocked = Gemm.multiply_plain { config with Gemm.block } in
      Alcotest.(check bool)
        (Printf.sprintf "block %d result matches" block)
        true
        (Norms.linf blocked full_block < 1e-12))
    [ 1; 2; 4; 5 ]

let test_instrumented_matches_plain () =
  let golden = Golden.run (Gemm.program config) in
  Helpers.check_close "bitwise identical" 0.
    (Norms.linf (Gemm.multiply_plain config) golden.Golden.output)

let test_site_count () =
  (* One store per (block-k, i, j): n^2 * ceil(n/block) updates. *)
  let golden = Golden.run (Gemm.program config) in
  let kblocks = (config.Gemm.n + config.Gemm.block - 1) / config.Gemm.block in
  Alcotest.(check int) "site count" (config.Gemm.n * config.Gemm.n * kblocks)
    (Golden.sites golden)

let test_deeper_propagation_than_matmul () =
  (* An error in an early partial update of c[0][0] must propagate to the
     later block updates of the same element — so GEMM's propagation
     coverage from site 0 contains more non-zero deviations than plain
     matmul's (where each output is written once). *)
  let golden = Golden.run (Gemm.program config) in
  let prop = Ftb_trace.Runner.run_propagation golden (Ftb_trace.Fault.make ~site:0 ~bit:52) in
  let significant =
    Array.fold_left (fun acc d -> if d > 0. then acc + 1 else acc) 0 prop.Ftb_trace.Runner.deviations
  in
  Alcotest.(check bool)
    (Printf.sprintf "site-0 error reaches later updates (%d deviations)" significant)
    true (significant >= 2)

let test_invalid_config () =
  (match Gemm.program { config with Gemm.block = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "block 0 accepted");
  match Gemm.program { config with Gemm.block = 9 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "block > n accepted"

let suite =
  [
    Alcotest.test_case "matches dense multiply" `Quick test_matches_dense_multiply;
    Alcotest.test_case "block size invariance" `Quick test_block_size_invariance;
    Alcotest.test_case "instrumented matches plain" `Quick test_instrumented_matches_plain;
    Alcotest.test_case "site count" `Quick test_site_count;
    Alcotest.test_case "deeper propagation than matmul" `Quick
      test_deeper_propagation_than_matmul;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
  ]
