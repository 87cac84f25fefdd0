(* Analysing a compiler-IR program with O(1)-memory propagation.

   Two extension features in one scenario:

   1. The target program is written in the library's miniature compiler IR
      (Ftb_ir) — the way the paper's own tooling hooks LLVM IR — and
      lowered to an instrumented program, so every analysis works on it
      unchanged.

   2. Propagation runs use the lockstep executor (Ftb_trace.Lockstep):
      golden and faulty executions advance as two effect-handler
      coroutines and each per-instruction deviation is streamed to the
      boundary as it is produced. No golden trace is stored — this is the
      "computation duplication" future-work idea from the paper's sec. 5
      Overhead discussion, with memory O(1) in the trace length.

   Run with:  dune exec examples/ir_lockstep.exe *)

module Lockstep = Ftb_trace.Lockstep
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault

let () =
  (* An IR kernel: y = A x with a data-dependent thresholding pass and a
     guarded normalisation (division by a sqrt that a flip can corrupt). *)
  let ir = Ftb_ir.Programs.normalize ~n:24 ~seed:17 ~tolerance:1e-3 in
  let program = Ftb_ir.Ir.to_program ir in
  let golden = Ftb_trace.Golden.run program in
  let sites = Ftb_trace.Golden.sites golden in
  Printf.printf "IR program %s: %d dynamic instructions, %d cases\n\n"
    program.Ftb_trace.Program.name sites
    (Ftb_trace.Golden.cases golden);

  (* Build a boundary from a 3% sample, feeding Algorithm 1 directly from
     the lockstep deviation stream: no traces are ever materialised. *)
  let rng = Ftb_util.Rng.create ~seed:23 in
  let cases = Ftb_inject.Sample_run.draw_uniform rng golden ~fraction:0.03 in
  let boundary = Ftb_core.Boundary.create ~sites in
  let masked = ref 0 and sdc = ref 0 and crash = ref 0 and diverged = ref 0 in
  Array.iter
    (fun case ->
      let fault = Fault.of_case case in
      (* First pass classifies; only masked runs contribute, so stream
         their deviations straight into the boundary on a second lockstep
         run. (A production setup would fold both into one pass with a
         small reorder buffer; two passes keep the example obvious.) *)
      let probe = Lockstep.run program fault in
      (match probe.Lockstep.outcome with
      | Runner.Masked ->
          incr masked;
          ignore
            (Lockstep.run
               ~on_deviation:(fun ~site ~deviation ->
                 Ftb_core.Boundary.add_masked_propagation boundary
                   ([| site |], [| deviation |]))
               program fault)
      | Runner.Sdc -> incr sdc
      | Runner.Crash -> incr crash);
      if probe.Lockstep.diverged_at <> None then incr diverged)
    cases;
  Printf.printf "sampled %d cases: %d masked, %d SDC, %d crash (%d diverged)\n"
    (Array.length cases) !masked !sdc !crash !diverged;

  (* What did the boundary learn? Cross-check against the classic
     store-and-diff pipeline to show the lockstep path is exact. *)
  let gt = Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden in
  let evaluation = Ftb_core.Metrics.evaluate boundary gt in
  Printf.printf "\nboundary quality vs ground truth:\n";
  Printf.printf "  precision %s   recall %s\n"
    (Ftb_report.Ascii.percent evaluation.Ftb_core.Metrics.precision)
    (Ftb_report.Ascii.percent evaluation.Ftb_core.Metrics.recall);

  (* Spot-check lockstep vs Runner equivalence on a few cases. *)
  let agreements = ref 0 in
  let checked = min 200 (Ftb_trace.Golden.cases golden) in
  for case = 0 to checked - 1 do
    let fault = Fault.of_case case in
    let a = (Runner.run_outcome golden fault).Runner.outcome in
    let b = (Lockstep.run program fault).Lockstep.outcome in
    if Runner.outcome_equal a b then incr agreements
  done;
  Printf.printf "\nlockstep vs store-and-diff classification: %d/%d cases agree\n"
    !agreements checked;

  (* The memory argument, concretely. *)
  Printf.printf "\nmemory: store-and-diff keeps %d golden values (%d bytes);\n" sites
    (8 * sites);
  Printf.printf "lockstep keeps two suspended continuations regardless of trace length.\n"
