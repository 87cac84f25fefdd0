(* Per-phase resiliency analysis of a conjugate gradient solver.

   The paper's Figure 4 shows that vulnerability is not uniform across a
   program: CG's initialisation stores tolerate nearly anything while the
   iteration body is fragile. This example reproduces that analysis at the
   source-phase level: it runs the adaptive sampler, groups the per-site
   SDC predictions by the static phase that produced each dynamic
   instruction, and ranks the phases (and the worst individual sites).

   Run with:  dune exec examples/cg_resilience.exe *)

let () =
  let grid = 6 and iterations = 10 in
  let program =
    Ftb_kernels.Suite.(program (cg ~grid ~iterations ~tolerance:1e-4))
  in
  let golden = Ftb_trace.Golden.run program in
  let sites = Ftb_trace.Golden.sites golden in
  Printf.printf "CG on a %dx%d Poisson grid, %d iterations: %d dynamic instructions\n\n" grid
    grid iterations sites;

  (* Adaptive sampling (sec. 3.4): rounds of 0.1% biased towards
     low-information sites, stopping once fresh samples are almost all
     SDC. *)
  Printf.printf "running adaptive sampling...\n%!";
  let result = Ftb_core.Adaptive.run (Ftb_util.Rng.create ~seed:7) golden in
  Printf.printf "  %d rounds, %s of the sample space used\n\n"
    result.Ftb_core.Adaptive.rounds
    (Ftb_report.Ascii.percent result.Ftb_core.Adaptive.sample_fraction);

  let observations =
    Ftb_core.Predict.observations_of_samples result.Ftb_core.Adaptive.samples
  in
  let ratios =
    Ftb_core.Predict.site_sdc_ratio ~policy:Ftb_core.Predict.Observed_all ~observations
      result.Ftb_core.Adaptive.boundary golden
  in

  (* Group the per-site predictions by source phase (Ftb_core.Regions). *)
  let table =
    Ftb_util.Table.create [ "phase"; "sites"; "mean SDC"; "max SDC"; "assessment" ]
  in
  List.iter
    (fun (s : Ftb_core.Regions.summary) ->
      Ftb_util.Table.add_row table
        [
          s.Ftb_core.Regions.phase;
          string_of_int s.Ftb_core.Regions.sites;
          Ftb_report.Ascii.percent s.Ftb_core.Regions.mean;
          Ftb_report.Ascii.percent s.Ftb_core.Regions.max;
          Ftb_core.Regions.assessment_to_string
            (Ftb_core.Regions.assess ~mean_sdc:s.Ftb_core.Regions.mean);
        ])
    (Ftb_core.Regions.summarize_by_phase golden ratios);
  print_string (Ftb_util.Table.render ~title:"Per-phase vulnerability (predicted)" table);

  (* The ten most vulnerable individual dynamic instructions. *)
  Printf.printf "\nMost vulnerable dynamic instructions:\n";
  Array.iteri
    (fun rank (site, phase, ratio) ->
      Printf.printf "  #%-2d site %-6d %-12s predicted SDC %s (golden value %.4g)\n"
        (rank + 1) site phase
        (Ftb_report.Ascii.percent ratio)
        (Ftb_trace.Golden.value golden site))
    (Ftb_core.Regions.top_sites golden ratios ~k:10);

  (* Early-iteration vs late-iteration vulnerability, the paper's
     observation about iterative solvers (sec. 4.5). *)
  let first_half = Array.sub ratios 0 (sites / 2) in
  let second_half = Array.sub ratios (sites / 2) (sites - (sites / 2)) in
  Printf.printf "\nearly half of the execution: mean predicted SDC %s\n"
    (Ftb_report.Ascii.percent (Ftb_util.Stats.mean first_half));
  Printf.printf "late half of the execution:  mean predicted SDC %s\n"
    (Ftb_report.Ascii.percent (Ftb_util.Stats.mean second_half))
