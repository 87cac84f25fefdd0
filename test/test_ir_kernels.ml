(* IR ports of the closure kernels: each port's uninstrumented run must be
   bit-identical to the closure oracle (same arithmetic in the same
   order), it must survive the optimizing pipeline (the inter-pass
   validator enforces stream preservation), and the optimized program must
   still compute the oracle output. *)

module Ir = Ftb_ir.Ir
module Pipeline = Ftb_ir.Pipeline
module Ir_kernels = Ftb_kernels.Ir_kernels

let check_bits what expected actual =
  Alcotest.(check int) (what ^ ": output length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i e ->
      if Int64.bits_of_float e <> Int64.bits_of_float actual.(i) then
        Alcotest.failf "%s: element %d differs: oracle %h, ir %h" what i e actual.(i))
    expected

(* Tiny configurations — the differential tests in [Test_cone] reuse
   these, so keep them small enough for exhaustive interpreted
   campaigns. *)
let tiny =
  [
    ("ir.cg", (fun () -> Ir_kernels.cg ~grid:3 ~iterations:3 ~tolerance:1e-4 ~record_init:true),
     fun () -> Ir_kernels.cg_oracle ~grid:3 ~iterations:3);
    ("ir.lu", (fun () -> Ir_kernels.lu ~n:6 ~block:3 ~seed:7 ~tolerance:1e-4),
     fun () -> Ir_kernels.lu_oracle ~n:6 ~block:3 ~seed:7);
    ("ir.fft", (fun () -> Ir_kernels.fft ~n1:4 ~n2:4 ~seed:11 ~tolerance:1.0),
     fun () -> Ir_kernels.fft_oracle ~n1:4 ~n2:4 ~seed:11);
    ("ir.jacobi", (fun () -> Ir_kernels.jacobi ~grid:3 ~sweeps:2 ~tolerance:1e-4),
     fun () -> Ir_kernels.jacobi_oracle ~grid:3 ~sweeps:2);
    ("ir.gemm", (fun () -> Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3),
     fun () -> Ir_kernels.gemm_oracle ~n:4 ~block:2 ~seed:21);
    ("ir.matmul", (fun () -> Ir_kernels.matmul ~n:4 ~seed:9 ~tolerance:1e-3),
     fun () -> Ir_kernels.matmul_oracle ~n:4 ~seed:9);
    ("ir.stencil", (fun () -> Ir_kernels.stencil ~size:4 ~sweeps:2 ~seed:3 ~tolerance:1e-4),
     fun () -> Ir_kernels.stencil_oracle ~size:4 ~sweeps:2 ~seed:3);
    ("matvec", (fun () -> Ir_kernels.matvec ~n:4 ~reps:3 ~seed:5 ~tolerance:1e-3),
     fun () -> Ir_kernels.matvec_oracle ~n:4 ~reps:3 ~seed:5);
  ]

let test_oracle_identity () =
  List.iter
    (fun (name, build, oracle) ->
      let ir = build () in
      (match Ir.validate ir with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "%s: validate: %s" name (String.concat "; " msgs));
      check_bits name (oracle ()) (Ir.interpret_plain ir))
    tiny

let test_optimized_oracle_identity () =
  List.iter
    (fun (name, build, oracle) ->
      let optimized = Pipeline.optimize (build ()) in
      check_bits (name ^ " (optimized)") (oracle ()) (Ir.interpret_plain optimized))
    tiny

let test_pipeline_shrinks_something () =
  (* The pipeline is not required to shrink every kernel, but across the
     suite it must make progress somewhere — otherwise the pass-stats CLI
     and the perf claims are vacuous. *)
  let shrunk =
    List.exists
      (fun (_, build) ->
        let ir = build () in
        let before = Ftb_ir.Passes.op_count ir in
        let after = Ftb_ir.Passes.op_count (Pipeline.optimize ir) in
        after < before)
      Ir_kernels.suite
  in
  Alcotest.(check bool) "some suite kernel shrinks under the pipeline" true shrunk

let test_suite_configs_build_and_lower () =
  (* Every registry entry at its campaign configuration must build,
     validate, and lower through the optimizing pipeline (the inter-pass
     validator runs inside [Pipeline.to_program] via [Suite]). *)
  List.iter
    (fun (name, build) ->
      let ir = build () in
      (match Ir.validate ir with
      | Ok () -> ()
      | Error msgs -> Alcotest.failf "%s: validate: %s" name (String.concat "; " msgs));
      let program = Ftb_kernels.Suite.find name in
      Alcotest.(check bool)
        (name ^ ": suite program is resumable")
        true
        (program.Ftb_trace.Program.resumable <> None);
      Alcotest.(check bool)
        (name ^ ": suite program carries a cone plan")
        true
        (program.Ftb_trace.Program.cone <> None))
    Ir_kernels.suite

let test_registry_is_consistent () =
  let names = List.map fst Ir_kernels.suite in
  let deduped = List.sort_uniq compare names in
  Alcotest.(check int) "no duplicate names" (List.length names) (List.length deduped);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " served by Suite") true
        (List.mem_assoc name Ftb_kernels.Suite.all))
    names;
  match Ir_kernels.find "ir.nope" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown kernel accepted"

let suite =
  [
    Alcotest.test_case "interpret_plain = closure oracle (bit-exact)" `Quick
      test_oracle_identity;
    Alcotest.test_case "optimized = closure oracle (bit-exact)" `Quick
      test_optimized_oracle_identity;
    Alcotest.test_case "pipeline shrinks at least one kernel" `Quick
      test_pipeline_shrinks_something;
    Alcotest.test_case "suite configs build and lower" `Quick
      test_suite_configs_build_and_lower;
    Alcotest.test_case "registry consistency" `Quick test_registry_is_consistent;
  ]
