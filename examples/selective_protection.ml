(* Selective protection: spending a duplication budget where it matters.

   The paper's motivation (sec. 1) is that full instruction duplication is
   too expensive and only a small fraction of instructions cause most SDC.
   This example closes that loop with Ftb_core.Protection: it uses the
   inferred fault tolerance boundary to rank dynamic instructions by
   predicted vulnerability, "protects" the top k% (a protected
   instruction's flips are assumed corrected, as duplication would), and
   measures — against ground truth — how much of the program's true SDC
   each budget eliminates, compared with a perfect oracle ranking.

   Run with:  dune exec examples/selective_protection.exe *)

module Protection = Ftb_core.Protection

let () =
  let program =
    Ftb_kernels.Suite.(program (lu ~n:16 ~block:4 ~seed:7 ~tolerance:1e-4))
  in
  let golden = Ftb_trace.Golden.run program in
  let sites = Ftb_trace.Golden.sites golden in
  Printf.printf "program: %s (%d dynamic instructions)\n\n"
    program.Ftb_trace.Program.description sites;

  (* Rank sites with a cheap 2% sample + boundary. *)
  let rng = Ftb_util.Rng.create ~seed:13 in
  let cases = Ftb_inject.Sample_run.draw_uniform rng golden ~fraction:0.02 in
  let samples = Ftb_inject.Sample_run.run_cases golden cases in
  let boundary = Ftb_core.Boundary.infer ~filter:true ~sites samples in
  let observations = Ftb_core.Predict.observations_of_samples samples in
  let plan =
    Protection.plan ~policy:Ftb_core.Predict.Observed_all ~observations boundary golden
  in

  (* Ground truth for the evaluation (the thing the boundary lets a real
     deployment avoid; we run it here to score the ranking honestly). *)
  Printf.printf "running exhaustive campaign for the evaluation baseline...\n%!";
  let gt = Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden in
  Printf.printf "true overall SDC ratio: %s\n\n"
    (Ftb_report.Ascii.percent (Ftb_inject.Ground_truth.sdc_ratio gt));

  let budgets = [| 0.01; 0.02; 0.05; 0.1; 0.2; 0.3; 0.5 |] in
  let evaluations = Protection.evaluate plan gt ~budgets in
  let table =
    Ftb_util.Table.create
      [ "protected"; "residual SDC"; "eliminated"; "oracle eliminates"; "efficiency" ]
  in
  Array.iter
    (fun (e : Protection.evaluation) ->
      Ftb_util.Table.add_row table
        [
          Ftb_report.Ascii.percent e.Protection.budget;
          Ftb_report.Ascii.percent e.Protection.residual_sdc_ratio;
          Ftb_report.Ascii.percent e.Protection.eliminated_sdc;
          Ftb_report.Ascii.percent e.Protection.oracle_eliminated_sdc;
          Ftb_report.Ascii.percent e.Protection.efficiency;
        ])
    evaluations;
  print_string
    (Ftb_util.Table.render
       ~title:
         "Selective protection guided by a 2% sample: residual SDC vs duplication budget"
       table);
  Printf.printf
    "\n\
     'eliminated' is the share of the program's true SDC removed by protecting the\n\
     boundary's top-k%% sites; 'efficiency' compares that against a perfect oracle\n\
     ranking. High efficiency at small budgets is the paper's selective-protection\n\
     promise.\n"
