(* Cross-module integration invariants: the properties that make the whole
   reproduction trustworthy, checked on small but real kernels. *)

module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault
module Lockstep = Ftb_trace.Lockstep
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run
module Boundary = Ftb_core.Boundary
module Context = Ftb_core.Context

let stencil_program =
  lazy
    (Ftb_oracle.Stencil.program
       { Ftb_oracle.Stencil.size = 5; sweeps = 3; seed = 3; tolerance = 1e-4 })

let context = lazy (Context.prepare ~name:"stencil" (Lazy.force stencil_program))

let test_seeded_studies_are_deterministic () =
  let c = Lazy.force context in
  let a = Ftb_core.Study_inference.run ~fraction:0.02 ~trials:2 ~seed:99 c in
  let b = Ftb_core.Study_inference.run ~fraction:0.02 ~trials:2 ~seed:99 c in
  Array.iteri
    (fun i (ta : Ftb_core.Study_inference.trial) ->
      let tb = b.Ftb_core.Study_inference.trials.(i) in
      Helpers.check_close "precision identical" ta.Ftb_core.Study_inference.precision
        tb.Ftb_core.Study_inference.precision;
      Helpers.check_close "recall identical" ta.Ftb_core.Study_inference.recall
        tb.Ftb_core.Study_inference.recall)
    a.Ftb_core.Study_inference.trials

let test_persisted_campaign_reproduces_study () =
  let c = Lazy.force context in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "ftb_integration_gt" in
  Helpers.save_complete ~path c.Context.ground_truth;
  let reloaded = Helpers.load_complete ~path c.Context.golden in
  let from_fresh = Ftb_core.Study_exhaustive.run c in
  let from_disk =
    Ftb_core.Study_exhaustive.run
      { c with Context.ground_truth = reloaded }
  in
  Helpers.check_close ~eps:0. "identical golden sdc"
    from_fresh.Ftb_core.Study_exhaustive.golden_sdc
    from_disk.Ftb_core.Study_exhaustive.golden_sdc;
  Helpers.check_close ~eps:0. "identical approx sdc"
    from_fresh.Ftb_core.Study_exhaustive.approx_sdc
    from_disk.Ftb_core.Study_exhaustive.approx_sdc;
  Sys.remove path

let test_lockstep_boundary_equals_runner_boundary () =
  (* Build the same boundary two ways: the store-and-diff pipeline and the
     O(1)-memory lockstep stream. Thresholds must agree bit for bit. *)
  let p = Lazy.force stencil_program in
  let c = Lazy.force context in
  let golden = c.Context.golden in
  let sites = Golden.sites golden in
  let rng = Ftb_util.Rng.create ~seed:7 in
  let cases = Sample_run.draw_uniform rng golden ~fraction:0.01 in
  let samples = Sample_run.run_cases golden cases in
  let via_runner = Boundary.infer ~sites samples in
  let via_lockstep = Boundary.create ~sites in
  Array.iter
    (fun case ->
      let fault = Fault.of_case case in
      let probe = Lockstep.run p fault in
      if probe.Lockstep.outcome = Runner.Masked then
        ignore
          (Lockstep.run
             ~on_deviation:(fun ~site ~deviation ->
               Boundary.add_masked_propagation via_lockstep ([| site |], [| deviation |]))
             p fault))
    cases;
  for site = 0 to sites - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "threshold at site %d identical" site)
      true
      (Boundary.threshold via_runner site = Boundary.threshold via_lockstep site)
  done

let test_parallel_context_equals_serial () =
  (* The context's campaign runs pooled on the executor; the serial
     per-case oracle must agree byte for byte. *)
  let c = Lazy.force context in
  let serial = Ground_truth.run c.Context.golden in
  Alcotest.(check bool) "identical outcome bytes" true
    (Bytes.equal serial.Ground_truth.outcomes c.Context.ground_truth.Ground_truth.outcomes)

let test_boundary_support_counts_propagations () =
  (* Every support unit must come from a masked sample's non-zero,
     unfiltered deviation — cross-check totals. *)
  let c = Lazy.force context in
  let golden = c.Context.golden in
  let rng = Ftb_util.Rng.create ~seed:11 in
  let cases = Sample_run.draw_uniform rng golden ~fraction:0.01 in
  let samples = Sample_run.run_cases golden cases in
  let boundary = Boundary.infer ~sites:(Golden.sites golden) samples in
  let expected =
    Array.fold_left
      (fun acc (s : Sample_run.t) ->
        match s.Sample_run.propagation with
        | Some (_, deviations) ->
            Alcotest.(check bool) "every kept deviation is positive" true
              (Array.for_all (fun d -> d > 0.) deviations);
            acc + Array.length deviations
        | None -> acc)
      0 samples
  in
  let total_support = Array.fold_left ( + ) 0 boundary.Boundary.support in
  Alcotest.(check int) "support = positive deviations" expected total_support

let test_models_bitflip64_consistent_with_ground_truth_sampling () =
  (* The Bit_flip_64 model with a full per-site budget re-derives the
     classic campaign on a kernel (not just the toy program). *)
  let c = Lazy.force context in
  let rng = Ftb_util.Rng.create ~seed:3 in
  let sampled =
    Ftb_core.Study_models.sample ~samples_per_site:64 rng ~name:"kernel" c.Context.golden
      [ Ftb_inject.Models.default_spec ]
  in
  match sampled.Ftb_core.Study_models.rows with
  | [ row ] ->
      Helpers.check_close ~eps:1e-12 "same sdc ratio as the exhaustive campaign"
        (Ground_truth.sdc_ratio c.Context.ground_truth)
        row.Ftb_core.Study_models.sdc_ratio
  | _ -> Alcotest.fail "one row per spec"

let test_cli_binary_runs () =
  (* The built CLI must at least answer `list`. *)
  let exe = "../bin/ftb_cli.exe" in
  if Sys.file_exists exe then begin
    let ic = Unix.open_process_in (exe ^ " list 2>/dev/null") in
    let first = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    Alcotest.(check bool) "lists cg" true (String.length first > 0)
  end
  else Alcotest.(check pass) "cli binary not in test sandbox" () ()

let suite =
  [
    Alcotest.test_case "seeded studies deterministic" `Quick
      test_seeded_studies_are_deterministic;
    Alcotest.test_case "persisted campaign reproduces study" `Quick
      test_persisted_campaign_reproduces_study;
    Alcotest.test_case "lockstep boundary = runner boundary" `Quick
      test_lockstep_boundary_equals_runner_boundary;
    Alcotest.test_case "parallel context = serial" `Quick test_parallel_context_equals_serial;
    Alcotest.test_case "support counts propagations" `Quick
      test_boundary_support_counts_propagations;
    Alcotest.test_case "models vs ground truth" `Quick
      test_models_bitflip64_consistent_with_ground_truth_sampling;
    Alcotest.test_case "cli binary runs" `Quick test_cli_binary_runs;
  ]
