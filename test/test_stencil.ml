module Stencil = Ftb_oracle.Stencil
module Golden = Ftb_trace.Golden
module Norms = Ftb_util.Norms

let config = { Stencil.size = 6; sweeps = 4; seed = 3; tolerance = 1e-4 }

let test_plain_dimensions () =
  let out = Stencil.run_plain config in
  Alcotest.(check int) "flattened grid" 36 (Array.length out)

let test_instrumented_matches_plain () =
  let golden = Golden.run (Stencil.program config) in
  Helpers.check_close "bitwise identical" 0.
    (Norms.linf (Stencil.run_plain config) golden.Golden.output)

let test_site_count () =
  (* size^2 initial stores + sweeps * size^2 updates. *)
  let golden = Golden.run (Stencil.program config) in
  Alcotest.(check int) "site count" (36 + (4 * 36)) (Golden.sites golden)

let test_averaging_contracts () =
  (* With zero padding the sweep is a strict contraction of the max norm. *)
  let a = Stencil.run_plain { config with Stencil.sweeps = 1 } in
  let b = Stencil.run_plain { config with Stencil.sweeps = 8 } in
  Alcotest.(check bool) "max decays over sweeps" true (Norms.max_abs b < Norms.max_abs a)

let test_single_cell_diffusion () =
  (* The stencil's weights sum to 1 with zero padding leaking mass at the
     boundary, so total mass can never grow sweep over sweep. *)
  let total a = Array.fold_left ( +. ) 0. a in
  let one = Stencil.run_plain { config with Stencil.sweeps = 1 } in
  let two = Stencil.run_plain { config with Stencil.sweeps = 2 } in
  Alcotest.(check bool) "mass never grows" true (total two <= total one +. 1e-12);
  Alcotest.(check bool) "gain bound documented" true
    (Stencil.theoretical_gain ~sweeps:4 = 1.0)

let test_invalid_config () =
  (match Stencil.program { config with Stencil.size = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "size 0 accepted");
  match Stencil.program { config with Stencil.sweeps = 0 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 sweeps accepted"

let test_deterministic_across_runs () =
  let a = Stencil.run_plain config and b = Stencil.run_plain config in
  Helpers.check_close "same output" 0. (Norms.linf a b)

let suite =
  [
    Alcotest.test_case "plain dimensions" `Quick test_plain_dimensions;
    Alcotest.test_case "instrumented matches plain" `Quick test_instrumented_matches_plain;
    Alcotest.test_case "site count" `Quick test_site_count;
    Alcotest.test_case "averaging contracts" `Quick test_averaging_contracts;
    Alcotest.test_case "diffusion mass bound" `Quick test_single_cell_diffusion;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
    Alcotest.test_case "deterministic" `Quick test_deterministic_across_runs;
  ]
