(* Experiment harness: regenerates every table and figure of the paper's
   evaluation section (PPoPP'21, "Understanding a Program's Resiliency
   Through Error Propagation").

   Usage:
     main.exe [EXPERIMENT ...] [--quick] [--csv DIR] [--svg DIR] [--markdown FILE] [--seed N]
              [--trials N] [--sweep-trials N]

   EXPERIMENT is any of: table1 fig3 table2 fig4 fig5 table3 table4 perf.
   With no experiment arguments, everything except perf runs. --quick
   shrinks the benchmark inputs and trial counts for CI-speed runs. *)

module Context = Ftb_core.Context
module Kernels = Ftb_kernels

type options = {
  quick : bool;
  csv_dir : string option;
  svg_dir : string option;
  markdown : string option;
  seed : int;
  trials : int;
  sweep_trials : int;
  experiments : string list;
}

let all_experiments =
  [
    "table1"; "fig3"; "table2"; "fig4"; "fig5"; "table3"; "table4"; "ablation";
    "tolerance"; "overhead";
  ]

let parse_options () =
  let quick = ref false in
  let csv_dir = ref None in
  let svg_dir = ref None in
  let markdown = ref None in
  let seed = ref 42 in
  let trials = ref 0 in
  let sweep_trials = ref 0 in
  let experiments = ref [] in
  let args = Array.to_list Sys.argv in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--csv" :: dir :: rest ->
        csv_dir := Some dir;
        go rest
    | "--svg" :: dir :: rest ->
        svg_dir := Some dir;
        go rest
    | "--markdown" :: path :: rest ->
        markdown := Some path;
        go rest
    | "--seed" :: n :: rest ->
        seed := int_of_string n;
        go rest
    | "--trials" :: n :: rest ->
        trials := int_of_string n;
        go rest
    | "--sweep-trials" :: n :: rest ->
        sweep_trials := int_of_string n;
        go rest
    | name :: rest when List.mem name ("perf" :: all_experiments) ->
        experiments := name :: !experiments;
        go rest
    | unknown :: _ ->
        Printf.eprintf
          "unknown argument %S\n\
           usage: main.exe [%s|perf ...] [--quick] [--csv DIR] [--svg DIR] [--markdown FILE] [--seed N] [--trials N] \
           [--sweep-trials N]\n"
          unknown
          (String.concat "|" all_experiments);
        exit 2
  in
  (match args with _ :: rest -> go rest | [] -> ());
  let quick = !quick in
  {
    quick;
    csv_dir = !csv_dir;
    svg_dir = !svg_dir;
    markdown = !markdown;
    seed = !seed;
    trials = (if !trials > 0 then !trials else if quick then 3 else 10);
    sweep_trials = (if !sweep_trials > 0 then !sweep_trials else if quick then 2 else 5);
    experiments = (match List.rev !experiments with [] -> all_experiments | list -> list);
  }

(* ------------------------------------------------------------------ *)
(* Benchmark configurations                                            *)

let cg_config ~quick =
  if quick then { Kernels.Cg.grid = 4; iterations = 6; tolerance = 1e-4 }
  else Kernels.Cg.default

let lu_config ~quick =
  if quick then { Kernels.Lu.n = 8; block = 2; seed = 7; tolerance = 1e-4 }
  else Kernels.Lu.default

let fft_config ~quick =
  if quick then { Kernels.Fft.n1 = 8; n2 = 4; seed = 11; tolerance = 1.0 }
  else Kernels.Fft.default

let scaling_grids ~quick = if quick then (3, 6) else (6, 12)

(* ------------------------------------------------------------------ *)
(* Context cache: golden run + exhaustive campaign, once per benchmark *)

let context_cache : (string, Context.t) Hashtbl.t = Hashtbl.create 8

let context ~name program =
  match Hashtbl.find_opt context_cache name with
  | Some c -> c
  | None ->
      let t0 = Unix.gettimeofday () in
      let c = Context.prepare ~name program in
      Printf.eprintf "  [%s] context ready: %d sites, %d cases (%.1fs)\n%!" name
        (Context.sites c) (Context.cases c)
        (Unix.gettimeofday () -. t0);
      Hashtbl.replace context_cache name c;
      c

let paper_contexts options =
  [
    context ~name:"cg" (Kernels.Cg.program (cg_config ~quick:options.quick));
    context ~name:"lu" (Kernels.Lu.program (lu_config ~quick:options.quick));
    context ~name:"fft" (Kernels.Fft.program (fft_config ~quick:options.quick));
  ]

(* ------------------------------------------------------------------ *)
(* Study caches (several experiments share a study's results)          *)

let cached cache key compute =
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
      let r = compute () in
      Hashtbl.replace cache key r;
      r

let exhaustive_cache = Hashtbl.create 8

let exhaustive_results options =
  List.map
    (fun (c : Context.t) ->
      cached exhaustive_cache c.Context.name (fun () -> Ftb_core.Study_exhaustive.run c))
    (paper_contexts options)

let inference_cache = Hashtbl.create 8

let inference_results options =
  List.map
    (fun (c : Context.t) ->
      cached inference_cache c.Context.name (fun () ->
          Ftb_core.Study_inference.run ~fraction:0.01 ~trials:options.trials
            ~seed:options.seed c))
    (paper_contexts options)

let adaptive_cache = Hashtbl.create 8

let adaptive_results options =
  List.map
    (fun (c : Context.t) ->
      cached adaptive_cache c.Context.name (fun () ->
          Ftb_core.Study_adaptive.run ~trials:options.trials ~seed:options.seed c))
    (paper_contexts options)

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)

let emit_csv options named =
  match options.csv_dir with
  | None -> ()
  | Some dir ->
      let paths = Ftb_report.Render.save_all ~dir named in
      List.iter (fun p -> Printf.eprintf "  csv: %s\n%!" p) paths

let emit_svg options name document =
  match options.svg_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".svg") in
      Ftb_report.Svg.save ~path document;
      Printf.eprintf "  svg: %s\n%!" path

let run_table1 options =
  let results = exhaustive_results options in
  print_string (Ftb_report.Render.table1 results);
  print_newline ();
  emit_csv options (Ftb_report.Render.csv_table1 results)

let run_fig3 options =
  let results = exhaustive_results options in
  print_string (Ftb_report.Render.fig3 results);
  emit_csv options (Ftb_report.Render.csv_fig3 results);
  List.iter
    (fun (r : Ftb_core.Study_exhaustive.result) ->
      let h = Ftb_core.Metrics.delta_sdc_histogram r.Ftb_core.Study_exhaustive.delta_sdc in
      emit_svg options
        (Printf.sprintf "fig3_%s" r.Ftb_core.Study_exhaustive.name)
        (Ftb_report.Svg.histogram_chart
           ~title:(Printf.sprintf "Figure 3 (%s): dSDC histogram" r.Ftb_core.Study_exhaustive.name)
           h))
    results

let run_table2 options =
  let results = inference_results options in
  print_string (Ftb_report.Render.table2 results);
  print_newline ();
  emit_csv options (Ftb_report.Render.csv_table2 results)

let run_fig4 options =
  let inference = inference_results options in
  let adaptive = adaptive_results options in
  List.iter2
    (fun inf ada ->
      let sites = Array.length inf.Ftb_core.Study_inference.true_ratio in
      let groups = max 1 (min 72 (sites / 8)) in
      print_string (Ftb_report.Render.fig4 ~inference:inf ~adaptive:ada ~groups);
      print_newline ();
      emit_csv options (Ftb_report.Render.csv_fig4 ~inference:inf ~adaptive:ada ~groups);
      let grouped v =
        Array.map snd (Ftb_core.Metrics.grouped_mean v ~groups)
      in
      let name = inf.Ftb_core.Study_inference.name in
      emit_svg options
        (Printf.sprintf "fig4_%s" name)
        (Ftb_report.Svg.line_chart
           ~title:(Printf.sprintf "Figure 4 (%s): per-site SDC ratio" name)
           ~y_label:"SDC ratio"
           [
             { Ftb_report.Svg.label = "true"; color = "#1f77b4";
               values = grouped inf.Ftb_core.Study_inference.true_ratio };
             { Ftb_report.Svg.label = "predicted (1% sample)"; color = "#ff7f0e";
               values = grouped inf.Ftb_core.Study_inference.predicted_ratio };
             { Ftb_report.Svg.label = "adaptive prediction"; color = "#2ca02c";
               values = grouped ada.Ftb_core.Study_adaptive.predicted_ratio };
           ]))
    inference adaptive

let run_fig5 options =
  let fractions =
    if options.quick then [| 0.001; 0.01; 0.1 |] else Ftb_core.Study_sweep.paper_fractions
  in
  let results =
    List.map
      (fun (c : Context.t) ->
        Printf.eprintf "  [%s] sample-size sweep...\n%!" c.Context.name;
        Ftb_core.Study_sweep.run ~fractions ~trials:options.sweep_trials ~seed:options.seed
          c)
      (paper_contexts options)
  in
  print_string (Ftb_report.Render.fig5 results);
  emit_csv options (List.concat_map (fun r -> Ftb_report.Render.csv_fig5 [ r ]) results)

let run_table3 options =
  let results = adaptive_results options in
  print_string (Ftb_report.Render.table3 results);
  print_newline ();
  emit_csv options (Ftb_report.Render.csv_table3 results)

let scaling_result : Ftb_core.Study_scaling.result option ref = ref None

let run_table4 options =
  let small_grid, large_grid = scaling_grids ~quick:options.quick in
  let make grid =
    let label = Printf.sprintf "%dx%d" grid grid in
    let config = { (cg_config ~quick:options.quick) with Kernels.Cg.grid = grid } in
    (label, context ~name:(Printf.sprintf "cg-%s" label) (Kernels.Cg.program config))
  in
  let contexts = [| make small_grid; make large_grid |] in
  let samples = if options.quick then 200 else 1000 in
  let result =
    Ftb_core.Study_scaling.run ~samples ~trials:options.trials ~seed:options.seed contexts
  in
  scaling_result := Some result;
  print_string (Ftb_report.Render.table4 result);
  print_newline ();
  emit_csv options (Ftb_report.Render.csv_table4 result)

let run_ablation options =
  (* The ablation isolates the adaptive sampler's knobs on the CG
     benchmark (the one whose Figure 4 profile motivates them). *)
  let cg = context ~name:"cg" (Kernels.Cg.program (cg_config ~quick:options.quick)) in
  let results =
    [ Ftb_core.Study_ablation.run ~trials:options.sweep_trials ~seed:options.seed cg ]
  in
  print_string (Ftb_report.Render.ablation results);
  emit_csv options (Ftb_report.Render.csv_ablation results)

let run_tolerance options =
  (* Sweep the acceptance threshold T on the stencil (cheap, provably
     monotone, so any quality loss is attributable to T alone). *)
  let tolerances =
    if options.quick then [| 1e-6; 1e-3; 1. |]
    else [| 1e-8; 1e-6; 1e-4; 1e-2; 1.; 100. |]
  in
  let size = if options.quick then 6 else 10 in
  let make ~tolerance =
    Kernels.Stencil.program { Kernels.Stencil.size; sweeps = 6; seed = 3; tolerance }
  in
  let results =
    [ Ftb_core.Study_tolerance.run ~seed:options.seed ~name:"stencil" ~tolerances make ]
  in
  print_string (Ftb_report.Render.tolerance results);
  emit_csv options (Ftb_report.Render.csv_tolerance results)

let run_overhead options =
  let cg_cfg = cg_config ~quick:options.quick in
  let stencil_cfg =
    if options.quick then { Kernels.Stencil.size = 6; sweeps = 4; seed = 3; tolerance = 1e-4 }
    else Kernels.Stencil.default
  in
  let results =
    [
      Ftb_core.Study_overhead.run ~name:"cg"
        ~plain:(fun () ->
          Kernels.Cg.solve_plain
            (Kernels.Poisson.matrix ~grid:cg_cfg.Kernels.Cg.grid)
            (Kernels.Poisson.rhs ~grid:cg_cfg.Kernels.Cg.grid)
            ~iterations:cg_cfg.Kernels.Cg.iterations)
        (Kernels.Cg.program cg_cfg);
      Ftb_core.Study_overhead.run ~name:"stencil"
        ~plain:(fun () -> Kernels.Stencil.run_plain stencil_cfg)
        (Kernels.Stencil.program stencil_cfg);
    ]
  in
  print_string (Ftb_core.Study_overhead.render results)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: the primitive operation behind each      *)
(* table/figure, timed on the CG benchmark.                            *)

let run_perf options =
  let open Bechamel in
  let quick = options.quick in
  let cg = Kernels.Cg.program (cg_config ~quick) in
  let golden = Ftb_trace.Golden.run cg in
  let sites = Ftb_trace.Golden.sites golden in
  let rng = Ftb_util.Rng.create ~seed:options.seed in
  let samples =
    Ftb_inject.Sample_run.run_cases golden
      (Ftb_inject.Sample_run.draw_uniform rng golden ~fraction:0.01)
  in
  let boundary = Ftb_core.Boundary.infer ~sites samples in
  let mid_fault = Ftb_trace.Fault.make ~site:(sites / 2) ~bit:30 in
  let tests =
    [
      Test.make ~name:"golden_run(cg)" (Staged.stage (fun () -> Ftb_trace.Golden.run cg));
      Test.make ~name:"outcome_run(cg)/table1"
        (Staged.stage (fun () -> Ftb_trace.Runner.run_outcome golden mid_fault));
      Test.make ~name:"propagation_run(cg)/table2"
        (Staged.stage (fun () -> Ftb_trace.Runner.run_propagation golden mid_fault));
      Test.make ~name:"boundary_infer(1pct)/fig5"
        (Staged.stage (fun () -> Ftb_core.Boundary.infer ~sites samples));
      Test.make ~name:"predict_site_ratio/fig4"
        (Staged.stage (fun () -> Ftb_core.Predict.site_sdc_ratio boundary golden));
      Test.make ~name:"uncertainty/table3"
        (Staged.stage (fun () -> Ftb_core.Metrics.uncertainty boundary golden samples));
    ]
  in
  let grouped = Test.make_grouped ~name:"ftb" ~fmt:"%s %s" tests in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) () in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  Printf.printf "Performance micro-benchmarks (monotonic clock)\n";
  Hashtbl.iter
    (fun name ols_result ->
      match Analyze.OLS.estimates ols_result with
      | Some (estimate :: _) -> Printf.printf "  %-36s %14.0f ns/run\n" name estimate
      | Some [] | None -> Printf.printf "  %-36s (no estimate)\n" name)
    results

(* ------------------------------------------------------------------ *)

let () =
  let options = parse_options () in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun experiment ->
      Printf.eprintf "== %s ==\n%!" experiment;
      match experiment with
      | "table1" -> run_table1 options
      | "fig3" -> run_fig3 options
      | "table2" -> run_table2 options
      | "fig4" -> run_fig4 options
      | "fig5" -> run_fig5 options
      | "table3" -> run_table3 options
      | "table4" -> run_table4 options
      | "ablation" -> run_ablation options
      | "tolerance" -> run_tolerance options
      | "overhead" -> run_overhead options
      | "perf" -> run_perf options
      | other -> Printf.eprintf "skipping unknown experiment %S\n%!" other)
    options.experiments;
  (match options.markdown with
  | None -> ()
  | Some path ->
      let take cache names =
        let hits = List.filter_map (Hashtbl.find_opt cache) names in
        if hits = [] then None else Some hits
      in
      let names = [ "cg"; "lu"; "fft" ] in
      let document =
        Ftb_report.Markdown.summary
          ?exhaustive:(take exhaustive_cache names)
          ?inference:(take inference_cache names)
          ?adaptive:(take adaptive_cache names)
          ?scaling:!scaling_result ~seed:options.seed ()
      in
      Ftb_report.Markdown.save ~path document;
      Printf.eprintf "markdown report: %s\n%!" path);
  Printf.eprintf "total wall time: %.1fs\n%!" (Unix.gettimeofday () -. t0)
