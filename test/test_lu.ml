module Lu = Ftb_oracle.Lu
module Dense = Ftb_kernels.Dense
module Golden = Ftb_trace.Golden
module Norms = Ftb_util.Norms
module Rng = Ftb_util.Rng

let random_input ~n ~seed = Dense.random_diagonally_dominant (Rng.create ~seed) ~n

let test_reconstruction () =
  let a = random_input ~n:12 ~seed:3 in
  let packed = Lu.factor_plain a ~block:4 in
  let l, u = Lu.unpack packed in
  let lu = Dense.matmul l u in
  Alcotest.(check bool) "LU = A" true (Dense.max_abs_diff lu a < 1e-10)

let test_block_size_invariance () =
  (* The blocked algorithm reorders the loop nest but must produce the same
     factors (up to rounding) for any block size. *)
  let a = random_input ~n:12 ~seed:4 in
  let reference = Lu.factor_plain a ~block:1 in
  List.iter
    (fun block ->
      let packed = Lu.factor_plain a ~block in
      Alcotest.(check bool)
        (Printf.sprintf "block %d matches unblocked" block)
        true
        (Dense.max_abs_diff packed reference < 1e-9))
    [ 2; 3; 4; 6; 12 ]

let test_unpack_shapes () =
  let a = random_input ~n:6 ~seed:5 in
  let l, u = Lu.unpack (Lu.factor_plain a ~block:3) in
  for i = 0 to 5 do
    Helpers.check_close "unit diagonal" 1. l.(i).(i);
    for j = i + 1 to 5 do
      Helpers.check_close "L strictly lower" 0. l.(i).(j)
    done;
    for j = 0 to i - 1 do
      Helpers.check_close "U upper" 0. u.(i).(j)
    done
  done

let test_instrumented_matches_plain () =
  let config = { Lu.n = 10; block = 5; seed = 7; tolerance = 1e-4 } in
  let golden = Golden.run (Lu.program config) in
  let input = random_input ~n:10 ~seed:7 in
  let packed = Lu.factor_plain input ~block:5 in
  Helpers.check_close "bitwise-identical factors" 0.
    (Norms.linf (Dense.flatten packed) golden.Golden.output)

let test_input_not_mutated () =
  let a = random_input ~n:6 ~seed:6 in
  let snapshot = Dense.copy a in
  ignore (Lu.factor_plain a ~block:2);
  Helpers.check_close "factor_plain copies its input" 0. (Dense.max_abs_diff a snapshot)

let test_program_reusable () =
  (* Two golden runs of the same program must agree (the body must not
     mutate shared state). *)
  let p = Lu.program { Lu.n = 8; block = 4; seed = 1; tolerance = 1e-4 } in
  let a = Golden.run p and b = Golden.run p in
  Helpers.check_close "same outputs" 0. (Norms.linf a.Golden.output b.Golden.output)

let test_invalid_config () =
  (match Lu.program { Lu.n = 0; block = 1; seed = 1; tolerance = 1e-4 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "n = 0 accepted");
  match Lu.program { Lu.n = 4; block = 5; seed = 1; tolerance = 1e-4 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "block > n accepted"

let prop_reconstruction_random =
  QCheck.Test.make ~name:"blocked LU reconstructs random dominant matrices" ~count:30
    QCheck.(pair (int_range 2 16) (int_range 1 4))
    (fun (n, block_raw) ->
      let block = min block_raw n in
      let a = random_input ~n ~seed:(n * 13 + block) in
      let l, u = Lu.unpack (Lu.factor_plain a ~block) in
      Dense.max_abs_diff (Dense.matmul l u) a < 1e-9)

let suite =
  [
    Alcotest.test_case "reconstruction" `Quick test_reconstruction;
    Alcotest.test_case "block size invariance" `Quick test_block_size_invariance;
    Alcotest.test_case "unpack shapes" `Quick test_unpack_shapes;
    Alcotest.test_case "instrumented matches plain" `Quick test_instrumented_matches_plain;
    Alcotest.test_case "input not mutated" `Quick test_input_not_mutated;
    Alcotest.test_case "program reusable" `Quick test_program_reusable;
    Alcotest.test_case "invalid config" `Quick test_invalid_config;
    Helpers.qcheck_to_alcotest prop_reconstruction_random;
  ]
