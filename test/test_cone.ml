(* Dependent-cone replay: campaign outcome bytes through the optimized,
   cone-enabled fast path must be bit-identical to the reference — the
   structured tree-walking interpreter run per-case — for every fault
   model, the stochastic random-value model included, and the fallbacks
   (fuel, cone:false) must change nothing. This is the acceptance bar of the specializer:
   same bytes, only faster. *)

module Ir = Ftb_ir.Ir
module Pipeline = Ftb_ir.Pipeline
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Ir_kernels = Ftb_kernels.Ir_kernels

(* Tiny kernels, mirroring [Test_ir_kernels.tiny], plus [normalize]
   (whose float branch forces cone fallback on branch-feeding sites). *)
let kernels =
  [
    ("ir.cg", fun () -> Ir_kernels.cg ~grid:3 ~iterations:3 ~tolerance:1e-4);
    ("ir.lu", fun () -> Ir_kernels.lu ~n:6 ~block:3 ~seed:7 ~tolerance:1e-4);
    ("ir.fft", fun () -> Ir_kernels.fft ~n1:4 ~n2:4 ~seed:11 ~tolerance:1.0);
    ("ir.jacobi", fun () -> Ir_kernels.jacobi ~grid:3 ~sweeps:2 ~tolerance:1e-4);
    ("ir.gemm", fun () -> Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3);
    ("ir.matmul", fun () -> Ir_kernels.matmul ~n:4 ~seed:9 ~tolerance:1e-3);
    ("ir.stencil", fun () -> Ir_kernels.stencil ~size:4 ~sweeps:2 ~seed:3 ~tolerance:1e-4);
    ("ir.normalize", fun () -> Ftb_ir.Programs.normalize ~n:12 ~seed:15 ~tolerance:1e-9);
  ]

(* Both lowerings of each kernel, built once: the optimized compiled
   program with the cone plan attached, and the reference interpreter. *)
let fixtures =
  lazy
    (List.map
       (fun (name, build) ->
         let ir = build () in
         ( name,
           Golden.run (Pipeline.to_program ir),
           Golden.run (Ir.to_program_interpreted ir) ))
       kernels)

let discrete_specs =
  List.map (fun model -> { Models.model; seed = 0 }) Models.all_discrete

let stochastic_spec = { Models.model = Models.Random_value { lo = -10.; hi = 10. }; seed = 5 }

let reference_bytes ?fuel spec golden =
  let total = Models.total_cases spec ~sites:(Golden.sites golden) in
  let buf = Bytes.create total in
  for case = 0 to total - 1 do
    Bytes.set buf case (Ground_truth.case_byte_model ?fuel spec golden case)
  done;
  buf

let check_model ?fuel what spec fast interp =
  let expected = reference_bytes ?fuel spec interp in
  let gt = Executor.ground_truth_model ~domains:1 ?fuel spec fast in
  Alcotest.(check bool)
    (Printf.sprintf "%s under %s%s: cone bytes = interpreted bytes" what
       (Models.spec_name spec)
       (match fuel with None -> "" | Some f -> Printf.sprintf " (fuel %d)" f))
    true
    (Bytes.equal expected gt.Ground_truth.outcomes)

let test_discrete_models_byte_identity () =
  List.iter
    (fun (name, fast, interp) ->
      Alcotest.(check int)
        (name ^ ": same site space")
        (Golden.sites interp) (Golden.sites fast);
      List.iter (fun spec -> check_model name spec fast interp) discrete_specs)
    (Lazy.force fixtures)

let test_stochastic_model_byte_identity () =
  (* A stochastic model's corruption is a pure function of (seed, case),
     so it takes the cone and snapshot tiers like a discrete one; bytes
     must still match the per-case interpreted reference. *)
  List.iter
    (fun (name, fast, interp) -> check_model name stochastic_spec fast interp)
    (Lazy.force fixtures)

let test_fuel_forces_fallback_identically () =
  (* Finite fuel disables cone replay (it performs no step bookkeeping);
     the snapshot path must take over with identical bytes. *)
  List.iter
    (fun (name, fast, interp) ->
      let fuel = max 1 (Golden.sites fast / 2) in
      check_model ~fuel name (List.hd discrete_specs) fast interp)
    (Lazy.force fixtures)

let test_cone_flag_changes_nothing () =
  List.iter
    (fun (name, fast, _) ->
      let with_cone = Executor.ground_truth_model ~domains:1 ~cone:true Models.default_spec fast in
      let without = Executor.ground_truth_model ~domains:1 ~cone:false Models.default_spec fast in
      Alcotest.(check bool) (name ^ ": cone:false = cone:true") true
        (Bytes.equal with_cone.Ground_truth.outcomes without.Ground_truth.outcomes))
    (Lazy.force fixtures)

let test_pooled_cone_campaign_identity () =
  (* The cone closures allocate per-site scratch, so domain-parallel
     campaigns must not interfere. *)
  List.iter
    (fun (name, fast, _) ->
      let serial = Executor.ground_truth_model ~domains:1 Models.default_spec fast in
      let pooled = Executor.ground_truth_model ~domains:4 Models.default_spec fast in
      Alcotest.(check bool) (name ^ ": pooled = serial") true
        (Bytes.equal serial.Ground_truth.outcomes pooled.Ground_truth.outcomes))
    (Lazy.force fixtures)

let test_cone_plans_exist_and_cover () =
  (* The plan must cover the full site space, and on branch-free kernels
     it must accept (not fall back on) most sites — otherwise the fast
     path is dead code and the perf claim is vacuous. *)
  List.iter
    (fun (name, fast, _) ->
      match fast.Golden.program.Program.cone with
      | None -> Alcotest.failf "%s: no cone capability" name
      | Some force -> (
          match force () with
          | None -> Alcotest.failf "%s: cone plan failed to build" name
          | Some plan ->
              Alcotest.(check int)
                (name ^ ": plan covers the site space")
                (Golden.sites fast) plan.Program.cone_sites;
              let accepted = ref 0 in
              for site = 0 to plan.Program.cone_sites - 1 do
                if plan.Program.cone_case ~site <> None then incr accepted
              done;
              if name <> "ir.normalize" && name <> "ir.cg" && name <> "ir.lu" then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: cone accepts most sites (%d/%d)" name !accepted
                     plan.Program.cone_sites)
                  true
                  (!accepted * 2 > plan.Program.cone_sites)))
    (Lazy.force fixtures)

let suite =
  [
    Alcotest.test_case "discrete models: cone = interpreted bytes" `Quick
      test_discrete_models_byte_identity;
    Alcotest.test_case "stochastic model: fallback = interpreted bytes" `Quick
      test_stochastic_model_byte_identity;
    Alcotest.test_case "fuel forces identical fallback" `Quick
      test_fuel_forces_fallback_identically;
    Alcotest.test_case "cone flag is outcome-invariant" `Quick test_cone_flag_changes_nothing;
    Alcotest.test_case "pooled cone campaign = serial" `Quick
      test_pooled_cone_campaign_identity;
    Alcotest.test_case "cone plans cover the site space" `Quick
      test_cone_plans_exist_and_cover;
  ]
