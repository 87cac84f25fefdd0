(* ftb — fault tolerance boundary analysis CLI.

   Subcommands:
     list                         list available benchmark programs
     campaign  BENCH              run a fault-injection campaign
     boundary  infer BENCH        infer a boundary from a random sample
     boundary  query|list|export|gc
                                  read the daemon's boundary store
     adaptive  BENCH              run the progressive/adaptive sampler
     report    BENCH              exhaustive-campaign study of one benchmark
     serve                        run the campaign daemon
     submit    BENCH              queue a campaign on a running daemon
     jobs                         list daemon jobs
     watch     ID                 stream a daemon job's progress
     cancel    ID                 cancel a daemon job *)

open Cmdliner

let setup_logs style_renderer level =
  Fmt_tty.setup_std_outputs ?style_renderer ();
  Logs.set_level level;
  Logs.set_reporter (Logs_fmt.reporter ())

let logs_term = Term.(const setup_logs $ Fmt_cli.style_renderer () $ Logs_cli.level ())

let bench_arg =
  let doc =
    Printf.sprintf "Benchmark program to analyse. One of: %s."
      (String.concat ", " (Ftb_kernels.Suite.names ()))
  in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCH" ~doc)

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Random seed for sampling.")

let fraction_arg =
  Arg.(
    value
    & opt float 0.01
    & info [ "fraction"; "f" ] ~docv:"F"
        ~doc:"Fraction of the (site, bit) sample space to draw, in (0, 1].")

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"DIR" ~doc:"Also write CSV files under $(docv).")

let model_conv =
  let parse s =
    match Ftb_inject.Models.spec_of_string s with
    | Ok spec -> Ok spec
    | Error msg -> Error (`Msg msg)
  in
  let print ppf spec =
    Format.pp_print_string ppf (Ftb_inject.Models.spec_to_string spec)
  in
  Arg.conv ~docv:"MODEL" (parse, print)

let model_arg =
  Arg.(
    value
    & opt model_conv Ftb_inject.Models.default_spec
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Fault model of the campaign: $(b,bit-flip-64) (the default, the paper's \
           model), $(b,bit-flip-32), $(b,adjacent-burst-2), or \
           $(b,random-value:LO:HI[:SEED]) (stochastic value replacement drawn \
           uniformly from [LO, HI), deterministically derived per case from SEED).")

(* One parser for the adaptive-campaign knobs, shared verbatim by
   `campaign --adaptive` and `submit --adaptive` so both accept the same
   flags, share the same defaults ({!Ftb_core.Adaptive.default_config})
   and reject the same out-of-range values as usage errors (exit 2) with
   the library's own message. *)
let adaptive_config_term =
  let d = Ftb_core.Adaptive.default_config in
  let round_fraction_arg =
    Arg.(
      value
      & opt float d.Ftb_core.Adaptive.round_fraction
      & info [ "round-fraction" ] ~docv:"F"
          ~doc:"Fraction of the case space drawn per adaptive round, in (0, 1].")
  in
  let stop_sdc_arg =
    Arg.(
      value
      & opt float d.Ftb_core.Adaptive.stop_sdc_fraction
      & info [ "stop-sdc" ] ~docv:"F"
          ~doc:
            "Convergence criterion: stop when at least this fraction of a round's \
             samples are SDC, in (0, 1].")
  in
  let max_rounds_arg =
    Arg.(
      value
      & opt int d.Ftb_core.Adaptive.max_rounds
      & info [ "max-rounds" ] ~docv:"N"
          ~doc:"Hard cap on adaptive rounds (positive).")
  in
  let no_filter_arg =
    Arg.(
      value & flag
      & info [ "no-filter" ]
          ~doc:"Skip the sec. 3.5 filter operation when folding rounds into the boundary.")
  in
  let no_bias_arg =
    Arg.(
      value & flag
      & info [ "no-bias" ]
          ~doc:
            "Draw each round uniformly instead of biasing candidate selection by \
             inverse information (sec. 3.4).")
  in
  let build round_fraction stop_sdc max_rounds no_filter no_bias =
    let config =
      {
        Ftb_core.Adaptive.round_fraction;
        stop_sdc_fraction = stop_sdc;
        max_rounds;
        filter = not no_filter;
        bias = not no_bias;
      }
    in
    match Ftb_core.Adaptive.check_config config with
    | () -> config
    | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
  in
  Term.(
    const build $ round_fraction_arg $ stop_sdc_arg $ max_rounds_arg $ no_filter_arg
    $ no_bias_arg)

let find_program name =
  match Ftb_kernels.Suite.find name with
  | program -> program
  | exception Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let pct = Ftb_report.Ascii.percent

(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () json =
    if json then begin
      (* Machine-readable listing for service clients and scripts — the
         aligned text below is for humans and not parse-stable. *)
      let module J = Ftb_service.Json in
      let entries =
        List.map
          (fun (name, program) ->
            let p = Lazy.force program in
            let golden = Ftb_trace.Golden.run p in
            J.Obj
              [
                ("name", J.String name);
                ("description", J.String p.Ftb_trace.Program.description);
                ("tolerance", J.Float p.Ftb_trace.Program.tolerance);
                ("sites", J.Int (Ftb_trace.Golden.sites golden));
              ])
          Ftb_kernels.Suite.all
      in
      print_endline (J.to_string (J.List entries))
    end
    else
      List.iter
        (fun (name, program) ->
          let p = Lazy.force program in
          Printf.printf "%-8s %s (T = %g)\n" name p.Ftb_trace.Program.description
            p.Ftb_trace.Program.tolerance)
        Ftb_kernels.Suite.all
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a JSON array (name, description, tolerance, site count) instead of \
             aligned text. Runs each benchmark's golden trace to size its site count.")
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List available benchmark programs")
    Term.(const run $ logs_term $ json_arg)

(* ------------------------------------------------------------------ *)

let campaign_run () name exhaustive adaptive aconfig fraction seed model csv checkpoint
    checkpoint_every resume fuel domains =
  let module Models = Ftb_inject.Models in
  if exhaustive && adaptive then begin
    Printf.eprintf "--exhaustive and --adaptive are mutually exclusive\n";
    exit 2
  end;
  (* A junk FTB_DOMAINS should be a usage error, not a backtrace — even
     when --domains was not passed. *)
  let domains = Ftb_util.Domains.default_or_exit ?flag:domains () in
  let program = find_program name in
  let golden = Ftb_trace.Golden.run program in
  let sites = Ftb_trace.Golden.sites golden in
  Printf.printf "%s: %d dynamic instructions, %d fault cases (%s)\n" name sites
    (Models.total_cases model ~sites)
    (Models.spec_name model);
  if adaptive then begin
    let module A = Ftb_core.Adaptive in
    let module AE = Ftb_plan.Adaptive_engine in
    let result, stats =
      AE.run ~config:aconfig ~spec:model ?fuel ?checkpoint
        ~on_round:(fun ~round ~drawn ~masked ~sdc ~crash ->
          Printf.printf "  round %2d: %d samples (%d masked, %d sdc, %d crash)\n%!" round
            drawn masked sdc crash)
        ~name ~seed golden
    in
    if stats.AE.resumed_rounds > 0 then
      Printf.printf "  resumed %d round%s (%d samples) from checkpoint\n"
        stats.AE.resumed_rounds
        (if stats.AE.resumed_rounds = 1 then "" else "s")
        stats.AE.resumed_samples;
    let masked, sdc, crash = Ftb_inject.Sample_run.count_outcomes result.A.samples in
    Printf.printf "adaptive campaign: %d rounds, stopped: %s\n" result.A.rounds
      (A.stop_reason_to_string result.A.stop_reason);
    Printf.printf "  %d samples (%s of the space): %d masked, %d sdc, %d crash\n"
      (Array.length result.A.samples)
      (pct result.A.sample_fraction)
      masked sdc crash;
    Printf.printf "  fresh samples this run: %d\n" stats.AE.fresh_samples
  end
  else if exhaustive then begin
    let module E = Ftb_campaign.Engine in
    let config =
      {
        E.default_config with
        E.checkpoint_every;
        domains;
        fuel;
        resume;
        model;
        (* A corrupt checkpoint should cost the user the resume, not the
           campaign: quarantine it for post-mortem and rebuild. *)
        on_invalid_checkpoint = E.Restart;
        on_checkpoint =
          (if checkpoint = None then None
           else
             Some
               (fun ~shards_done ~shards_total ->
                 Logs.info (fun m ->
                     m "checkpoint: %d/%d shards" shards_done shards_total)));
      }
    in
    let report = E.run ~config ?checkpoint golden in
    (match report.E.quarantined with
    | Some path ->
        Printf.printf
          "warning: checkpoint was corrupt — moved to %s, campaign restarted from \
           scratch\n"
          path
    | None -> ());
    let gt = report.E.ground_truth in
    Printf.printf "exhaustive campaign:\n  masked %s\n  sdc    %s\n  crash  %s\n"
      (pct (Ftb_inject.Ground_truth.masked_ratio gt))
      (pct (Ftb_inject.Ground_truth.sdc_ratio gt))
      (pct (Ftb_inject.Ground_truth.crash_ratio gt));
    let c = Ftb_inject.Ground_truth.crash_counts gt in
    Printf.printf "  crash reasons: %d nan, %d inf, %d exception, %d fuel-exhausted\n"
      c.Ftb_inject.Ground_truth.nan c.Ftb_inject.Ground_truth.inf
      c.Ftb_inject.Ground_truth.exn c.Ftb_inject.Ground_truth.fuel;
    if checkpoint <> None then
      Printf.printf
        "  shards: %d total, %d resumed from checkpoint, %d executed, %d retried, %d \
         checkpoints written\n"
        report.E.total_shards report.E.resumed_shards report.E.executed_shards
        report.E.retries report.E.checkpoints_written;
    match csv with
    | None -> ()
    | Some dir ->
        let table = Ftb_util.Table.create [ "site"; "phase"; "sdc_ratio" ] in
        Array.iteri
          (fun site ratio ->
            Ftb_util.Table.add_row table
              [
                string_of_int site;
                Ftb_trace.Golden.phase_of_site golden site;
                Printf.sprintf "%.6f" ratio;
              ])
          (Ftb_inject.Ground_truth.site_sdc_ratio gt);
        let path = Ftb_util.Table.save_csv ~dir ~name:(name ^ "_site_sdc") table in
        Printf.printf "wrote %s\n" path
  end
  else begin
    let rng = Ftb_util.Rng.create ~seed in
    let cases = Ftb_inject.Sample_run.draw_uniform_model rng model golden ~fraction in
    let masked, sdc, crash = Ftb_inject.Sample_run.count_cases_model ?fuel model golden cases in
    let runs = Array.length cases in
    let total = float_of_int runs in
    Printf.printf "monte carlo campaign (%s of the space, %d runs):\n" (pct fraction)
      runs;
    Printf.printf "  masked %s\n  sdc    %s\n  crash  %s\n"
      (pct (float_of_int masked /. total))
      (pct (float_of_int sdc /. total))
      (pct (float_of_int crash /. total))
  end

let campaign_cmd =
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:"Run the complete campaign (every bit of every dynamic instruction).")
  in
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Run the sec. 3.4 progressive/adaptive sampler through the round engine: \
             plan, execute and fold biased rounds until the $(b,--stop-sdc) criterion \
             converges. With $(b,--checkpoint) the campaign is kill-safe at round \
             granularity and resumes bit-identically.")
  in
  let checkpoint_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Checkpoint file for the exhaustive or adaptive campaign: partial state is \
             written here atomically so an interrupted campaign can be resumed (with \
             $(b,--resume) for exhaustive; adaptive campaigns resume automatically when \
             the checkpoint matches the campaign identity).")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Write a checkpoint at the end of each shard wave by which at least $(docv) \
             shards have completed since the last one. Waves hold one shard per domain \
             at first and double while each takes under 0.25 s.")
  in
  let resume_arg =
    Arg.(
      value & flag
      & info [ "resume" ]
          ~doc:
            "Resume from the $(b,--checkpoint) file if it exists (validated against the \
             golden run); without this flag an existing checkpoint is ignored and \
             overwritten.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N"
          ~doc:
            "Per-case dynamic-instruction budget; faults that keep the program from \
             converging terminate as fuel-exhausted crashes instead of hanging.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains for the exhaustive campaign (1 = serial). Precedence: this \
             flag wins; otherwise the $(b,FTB_DOMAINS) environment variable; otherwise \
             the recommended domain count capped to 8.")
  in
  Cmd.v
    (Cmd.info "campaign" ~doc:"Run a fault-injection campaign on a benchmark")
    Term.(
      const campaign_run $ logs_term $ bench_arg $ exhaustive_arg $ adaptive_arg
      $ adaptive_config_term $ fraction_arg $ seed_arg $ model_arg $ csv_arg
      $ checkpoint_arg $ checkpoint_every_arg $ resume_arg $ fuel_arg $ domains_arg)

(* ------------------------------------------------------------------ *)

let boundary_run () name fraction filter seed evaluate =
  let program = find_program name in
  let golden = Ftb_trace.Golden.run program in
  let sites = Ftb_trace.Golden.sites golden in
  let rng = Ftb_util.Rng.create ~seed in
  let cases = Ftb_inject.Sample_run.draw_uniform rng golden ~fraction in
  let samples = Ftb_inject.Sample_run.run_cases golden cases in
  let boundary = Ftb_core.Boundary.infer ~filter ~sites samples in
  let masked, sdc, crash = Ftb_inject.Sample_run.count_outcomes samples in
  Printf.printf "%s: boundary from %d samples (%s), filter %s\n" name
    (Array.length samples) (pct fraction)
    (if filter then "on" else "off");
  Printf.printf "  sample outcomes: %d masked, %d sdc, %d crash\n" masked sdc crash;
  let supported = ref 0 in
  Array.iter (fun s -> if s > 0 then incr supported) boundary.Ftb_core.Boundary.support;
  Printf.printf "  sites with evidence: %d / %d (%s)\n" !supported sites
    (pct (float_of_int !supported /. float_of_int sites));
  Printf.printf "  uncertainty (self-verified precision): %s\n"
    (pct (Ftb_core.Metrics.uncertainty boundary golden samples));
  let observations = Ftb_core.Predict.observations_of_samples samples in
  Printf.printf "  predicted overall SDC ratio: %s\n"
    (pct
       (Ftb_core.Predict.overall_sdc_ratio ~policy:Ftb_core.Predict.Observed_all
          ~observations boundary golden));
  if evaluate then begin
    Printf.printf "running exhaustive campaign for ground-truth evaluation...\n%!";
    let gt = Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden in
    let e = Ftb_core.Metrics.evaluate boundary gt in
    Printf.printf "  true SDC ratio: %s\n" (pct (Ftb_inject.Ground_truth.sdc_ratio gt));
    Printf.printf "  precision %s, recall %s\n" (pct e.Ftb_core.Metrics.precision)
      (pct e.Ftb_core.Metrics.recall)
  end

(* The default term of the `boundary` command group; the store-facing
   subcommands (query / list / export / gc) are defined with the other
   service commands below. *)
let boundary_infer_term =
  let filter_arg =
    Arg.(value & flag & info [ "filter" ] ~doc:"Apply the SDC filter operation (sec. 3.5).")
  in
  let evaluate_arg =
    Arg.(
      value & flag
      & info [ "evaluate" ]
          ~doc:"Also run the exhaustive campaign and report precision/recall.")
  in
  Term.(
    const boundary_run $ logs_term $ bench_arg $ fraction_arg $ filter_arg $ seed_arg
    $ evaluate_arg)

(* ------------------------------------------------------------------ *)

let adaptive_run () name round_fraction stop seed evaluate =
  let program = find_program name in
  let golden = Ftb_trace.Golden.run program in
  let config =
    {
      Ftb_core.Adaptive.default_config with
      Ftb_core.Adaptive.round_fraction;
      stop_sdc_fraction = stop;
    }
  in
  let result =
    Ftb_core.Adaptive.run ~config
      ~on_round:(fun ~round ~drawn ~masked ~sdc ~crash ->
        Printf.printf "  round %2d: %d samples (%d masked, %d sdc, %d crash)\n" round drawn
          masked sdc crash)
      (Ftb_util.Rng.create ~seed) golden
  in
  Printf.printf "%s: adaptive sampling finished after %d rounds (%s)\n" name
    result.Ftb_core.Adaptive.rounds
    (match result.Ftb_core.Adaptive.stop_reason with
    | Ftb_core.Adaptive.Converged -> "converged"
    | Ftb_core.Adaptive.Pool_exhausted -> "candidate pool exhausted"
    | Ftb_core.Adaptive.Round_cap -> "round cap reached");
  Printf.printf "  samples used: %s of the space\n"
    (pct result.Ftb_core.Adaptive.sample_fraction);
  let observations =
    Ftb_core.Predict.observations_of_samples result.Ftb_core.Adaptive.samples
  in
  Printf.printf "  predicted overall SDC ratio: %s\n"
    (pct
       (Ftb_core.Predict.overall_sdc_ratio ~policy:Ftb_core.Predict.Observed_all
          ~observations result.Ftb_core.Adaptive.boundary golden));
  if evaluate then begin
    Printf.printf "running exhaustive campaign for ground-truth evaluation...\n%!";
    let gt = Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden in
    Printf.printf "  true SDC ratio: %s\n" (pct (Ftb_inject.Ground_truth.sdc_ratio gt));
    let e = Ftb_core.Metrics.evaluate result.Ftb_core.Adaptive.boundary gt in
    Printf.printf "  precision %s, recall %s\n" (pct e.Ftb_core.Metrics.precision)
      (pct e.Ftb_core.Metrics.recall)
  end

let adaptive_cmd =
  let round_arg =
    Arg.(
      value & opt float 0.001
      & info [ "round-fraction" ] ~docv:"F" ~doc:"Fraction of the space drawn per round.")
  in
  let stop_arg =
    Arg.(
      value & opt float 0.95
      & info [ "stop" ] ~docv:"F"
          ~doc:"Stop when at least this fraction of a round's samples are SDC.")
  in
  let evaluate_arg =
    Arg.(
      value & flag
      & info [ "evaluate" ]
          ~doc:"Also run the exhaustive campaign and report precision/recall.")
  in
  Cmd.v
    (Cmd.info "adaptive" ~doc:"Run the progressive/adaptive sampling method (sec. 3.4)")
    Term.(
      const adaptive_run $ logs_term $ bench_arg $ round_arg $ stop_arg $ seed_arg
      $ evaluate_arg)

(* ------------------------------------------------------------------ *)

let protect_run () name fraction seed budgets =
  let program = find_program name in
  let golden = Ftb_trace.Golden.run program in
  let sites = Ftb_trace.Golden.sites golden in
  let rng = Ftb_util.Rng.create ~seed in
  let cases = Ftb_inject.Sample_run.draw_uniform rng golden ~fraction in
  let samples = Ftb_inject.Sample_run.run_cases golden cases in
  let boundary = Ftb_core.Boundary.infer ~filter:true ~sites samples in
  let observations = Ftb_core.Predict.observations_of_samples samples in
  let plan =
    Ftb_core.Protection.plan ~policy:Ftb_core.Predict.Observed_all ~observations boundary
      golden
  in
  Printf.printf "%s: protection plan from a %s sample (%d runs)\n" name (pct fraction)
    (Array.length samples);
  Printf.printf "running exhaustive campaign to score the plan...\n%!";
  let gt = Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden in
  let evaluations = Ftb_core.Protection.evaluate plan gt ~budgets:(Array.of_list budgets) in
  let table =
    Ftb_util.Table.create [ "budget"; "residual SDC"; "eliminated"; "efficiency" ]
  in
  Array.iter
    (fun (e : Ftb_core.Protection.evaluation) ->
      Ftb_util.Table.add_row table
        [
          pct e.Ftb_core.Protection.budget;
          pct e.Ftb_core.Protection.residual_sdc_ratio;
          pct e.Ftb_core.Protection.eliminated_sdc;
          pct e.Ftb_core.Protection.efficiency;
        ])
    evaluations;
  print_string (Ftb_util.Table.render ~title:"Selective protection" table)

let protect_cmd =
  let budgets_arg =
    Arg.(
      value
      & opt (list float) [ 0.01; 0.05; 0.1; 0.2 ]
      & info [ "budgets" ] ~docv:"B,..."
          ~doc:"Protection budgets as fractions of all sites.")
  in
  Cmd.v
    (Cmd.info "protect" ~doc:"Rank sites for selective protection and score the ranking")
    Term.(const protect_run $ logs_term $ bench_arg $ fraction_arg $ seed_arg $ budgets_arg)

(* ------------------------------------------------------------------ *)

let models_run () name exhaustive samples_per_site seed fuel domains csv =
  let program = find_program name in
  let golden = Ftb_trace.Golden.run program in
  if exhaustive then begin
    (* The cross-model results family: one full campaign per model, via
       the same model-aware executor the campaign engine uses. *)
    let domains = Ftb_util.Domains.default_or_exit ?flag:domains () in
    let result =
      Ftb_core.Study_models.run ~domains ?fuel ~name golden
        (Ftb_core.Study_models.default_specs ~seed)
    in
    print_string (Ftb_report.Render.model_table [ result ]);
    match csv with
    | None -> ()
    | Some dir ->
        List.iter
          (fun path -> Printf.printf "wrote %s\n" path)
          (Ftb_report.Render.save_all ~dir
             (Ftb_report.Render.csv_model_table [ result ]))
  end
  else begin
    let result =
      Ftb_core.Study_models.sample ?fuel ~samples_per_site (Ftb_util.Rng.create ~seed) ~name
        golden
        (Ftb_core.Study_models.default_specs ~seed)
    in
    Printf.printf "%s: SDC sensitivity to the fault model (%d injections per site)\n" name
      samples_per_site;
    let table = Ftb_util.Table.create [ "model"; "runs"; "masked"; "sdc"; "crash" ] in
    List.iter
      (fun (row : Ftb_core.Study_models.row) ->
        Ftb_util.Table.add_row table
          [
            Ftb_inject.Models.name row.model.Ftb_inject.Models.model;
            string_of_int row.cases;
            pct row.masked_ratio;
            pct row.sdc_ratio;
            pct row.crash_ratio;
          ])
      result.Ftb_core.Study_models.rows;
    print_string (Ftb_util.Table.render table)
  end

let models_cmd =
  let samples_arg =
    Arg.(
      value & opt int 4
      & info [ "samples-per-site" ] ~docv:"N" ~doc:"Injections drawn per dynamic instruction.")
  in
  let exhaustive_arg =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:
            "Run the complete campaign under every model (instead of a small \
             Monte-Carlo sample) and print the cross-model comparison table.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"Per-case dynamic-instruction budget.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:"Worker domains for the exhaustive campaigns (1 = serial).")
  in
  Cmd.v
    (Cmd.info "models" ~doc:"Compare SDC ratios under alternative fault models")
    Term.(
      const models_run $ logs_term $ bench_arg $ exhaustive_arg $ samples_arg $ seed_arg
      $ fuel_arg $ domains_arg $ csv_arg)

(* ------------------------------------------------------------------ *)

let propagation_run () name site bit fraction seed =
  let program = find_program name in
  let golden = Ftb_trace.Golden.run program in
  let sites = Ftb_trace.Golden.sites golden in
  let site = if site >= 0 then site else sites / 2 in
  if site >= sites then begin
    Printf.eprintf "site %d out of range (program has %d dynamic instructions)\n" site sites;
    exit 2
  end;
  (* One experiment's wave... *)
  let fault = Ftb_trace.Fault.make ~site ~bit in
  let prop = Ftb_trace.Runner.run_propagation golden fault in
  print_string (Ftb_report.Propagation_view.wave golden prop);
  (* ...and the aggregate phase-to-phase matrix from a sample. *)
  let rng = Ftb_util.Rng.create ~seed in
  let cases = Ftb_inject.Sample_run.draw_uniform rng golden ~fraction in
  let samples = Ftb_inject.Sample_run.run_cases golden cases in
  print_newline ();
  print_string
    (Ftb_report.Propagation_view.render_matrix
       (Ftb_report.Propagation_view.phase_matrix golden samples))

let propagation_cmd =
  let site_arg =
    Arg.(
      value & opt int (-1)
      & info [ "site" ] ~docv:"I" ~doc:"Injection site for the wave view (default: middle).")
  in
  let bit_arg =
    Arg.(value & opt int 52 & info [ "bit" ] ~docv:"B" ~doc:"Bit to flip for the wave view.")
  in
  Cmd.v
    (Cmd.info "propagation"
       ~doc:"Visualise error propagation: one experiment's wave and the phase matrix")
    Term.(const propagation_run $ logs_term $ bench_arg $ site_arg $ bit_arg $ fraction_arg $ seed_arg)

(* ------------------------------------------------------------------ *)

let report_run () name csv =
  let program = find_program name in
  let context = Ftb_core.Context.prepare ~name program in
  let result = Ftb_core.Study_exhaustive.run context in
  print_string (Ftb_report.Render.table1 [ result ]);
  print_newline ();
  print_string (Ftb_report.Render.crash_table [ result ]);
  print_newline ();
  print_string (Ftb_report.Render.fig3 [ result ]);
  match csv with
  | None -> ()
  | Some dir ->
      List.iter
        (fun p -> Printf.printf "wrote %s\n" p)
        (Ftb_report.Render.save_all ~dir
           (Ftb_report.Render.csv_table1 [ result ]
           @ Ftb_report.Render.csv_crash_table [ result ]
           @ Ftb_report.Render.csv_fig3 [ result ]))

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"Exhaustive-campaign resiliency report for one benchmark")
    Term.(const report_run $ logs_term $ bench_arg $ csv_arg)

(* ------------------------------------------------------------------ *)
(* Campaign service: daemon + clients                                  *)

module Service = Ftb_service

let default_state_dir = "_ftb_service"

let state_arg =
  Arg.(
    value & opt string default_state_dir
    & info [ "state" ] ~docv:"DIR"
        ~doc:"Daemon state directory (job descriptors and campaign checkpoints).")

let socket_of_state state = Filename.concat state "daemon.sock"

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          (Printf.sprintf
             "Unix-domain socket of the daemon (default: $(b,%s))."
             (socket_of_state default_state_dir)))

let serve_run () state socket tcp capacity domains checkpoint_every stuck_after
    lease_ttl audit_rate quarantine_after no_cache =
  let domains = Ftb_util.Domains.default_or_exit ?flag:domains () in
  let socket = Option.value socket ~default:(socket_of_state state) in
  (match stuck_after with
  | Some d when d <= 0. ->
      Printf.eprintf "--stuck-after must be positive (got %g)\n" d;
      exit 2
  | _ -> ());
  if lease_ttl <= 0. then begin
    Printf.eprintf "--lease-ttl must be positive (got %g)\n" lease_ttl;
    exit 2
  end;
  if not (audit_rate >= 0. && audit_rate <= 1.) then begin
    Printf.eprintf "--audit-rate must be in [0, 1] (got %g)\n" audit_rate;
    exit 2
  end;
  if quarantine_after <= 0 then begin
    Printf.eprintf "--quarantine-after must be positive (got %d)\n" quarantine_after;
    exit 2
  end;
  (* Every daemon is fleet-capable: remote `ftb worker` processes may
     attach at any time and exhaustive jobs submitted while workers are
     live run on the fleet. The fleet's own shard executions (the local
     holder's shards, audits) share the daemon's pool. Adaptive rounds never
     leave the daemon: they run serially on the scheduler thread. *)
  let pool =
    if domains > 1 then Some (Ftb_inject.Parallel.Pool.global ~domains ()) else None
  in
  let fleet = Ftb_dist.Fleet.create ?pool ~lease_ttl ~audit_rate ~quarantine_after () in
  let config =
    {
      (Service.Server.default_config ~state_dir:state) with
      Service.Server.capacity;
      domains;
      checkpoint_every;
      stuck_after;
      cache = not no_cache;
      extension = Some (Ftb_dist.Fleet.extension fleet);
      wave_runner = Some (Ftb_dist.Fleet.wave_runner fleet);
      provenance =
        Some
          (fun ~job_id ->
            Ftb_dist.Fleet.job_provenance fleet ~job_id
            |> Option.map (fun jp ->
                   (jp.Ftb_dist.Fleet.jp_workers, jp.Ftb_dist.Fleet.jp_audited)));
    }
  in
  let t = Service.Server.create config in
  (* A conviction has three consequences: operators hear about it, any
     profile the liar ever touched leaves the cache, and watchers of the
     running job see the event inline. *)
  Ftb_dist.Fleet.set_on_quarantine fleet (fun ~name ~disputes ->
      Printf.printf
        "ftb daemon: worker %s QUARANTINED after %d disputed shards\n%!" name
        disputes;
      (match Service.Server.store t with
      | Some store ->
          let removed = Ftb_compose.Store.invalidate_worker store ~worker:name in
          if removed > 0 then
            Printf.printf
              "ftb daemon: purged %d cached profile%s with provenance from %s\n%!"
              removed
              (if removed = 1 then "" else "s")
              name
      | None -> ());
      Service.Server.notify_quarantine t ~worker:name ~disputes);
  Printf.printf
    "ftb daemon: state %s, socket %s, %d domain%s, queue capacity %d%s, lease ttl \
     %gs, audit rate %s, cache %s\n\
     %!"
    state socket domains
    (if domains = 1 then "" else "s")
    capacity
    (match stuck_after with
    | Some d -> Printf.sprintf ", stuck watchdog %gs" d
    | None -> "")
    lease_ttl
    (if audit_rate = 0. then "off" else pct audit_rate)
    (if no_cache then "off" else "on");
  Service.Server.run ?tcp ~socket t;
  Printf.printf "ftb daemon: drained\n"

let serve_cmd =
  let tcp_arg =
    Arg.(
      value
      & opt (some (pair ~sep:':' string int)) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Additionally listen on a TCP endpoint (opt-in; no authentication).")
  in
  let capacity_arg =
    Arg.(
      value & opt int 64
      & info [ "capacity" ] ~docv:"N"
          ~doc:"Queue bound; further submissions are rejected with $(b,queue_full).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains for campaign execution. Precedence: this flag; then \
             $(b,FTB_DOMAINS); then the recommended count capped to 8.")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 1
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:
            "Exhaustive jobs write a checkpoint at the end of each shard wave by which at \
             least $(docv) shards have completed since the last one.")
  in
  let stuck_after_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "stuck-after" ] ~docv:"SECONDS"
          ~doc:
            "Stuck-job watchdog: a running job that completes no shard wave for \
             this long is marked $(b,stuck) (terminal, checkpoint preserved) and \
             the queue moves on. Waves grow only while each takes under 0.25 s, so \
             a healthy job completes one about every half second or faster. Off by \
             default.")
  in
  let lease_ttl_arg =
    Arg.(
      value & opt float 5.0
      & info [ "lease-ttl" ] ~docv:"SECONDS"
          ~doc:
            "Shard lease deadline for attached $(b,ftb worker) processes. A \
             worker that stops heartbeating for this long loses its lease and \
             the shard is reassigned.")
  in
  let audit_rate_arg =
    Arg.(
      value & opt float 0.02
      & info [ "audit-rate" ] ~docv:"FRACTION"
          ~doc:
            "Trust-but-verify: fraction of each fleet wave's remotely-committed \
             shards the daemon re-executes locally and compares digests on \
             (always at least one shard per worker per job). A mismatch marks \
             the shard disputed, triggers full re-execution of that worker's \
             commits, and counts toward $(b,--quarantine-after). $(b,0) \
             disables auditing — fleet-harvested cache profiles then stay \
             unaudited and are refused at submit time without \
             $(b,--trust-cache).")
  in
  let quarantine_after_arg =
    Arg.(
      value & opt int 2
      & info [ "quarantine-after" ] ~docv:"N"
          ~doc:
            "Quarantine a worker after N disputed (silently corrupt) shards: \
             its leases are revoked, re-registration under the same name is \
             refused, and every cached profile it touched is purged. Clear \
             with $(b,ftb workers --clear NAME).")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Disable the compositional profile cache. By default the daemon \
             keeps per-section and whole-boundary outcome profiles under \
             $(b,<state>/cache) and serves byte-identical exhaustive \
             resubmissions from them — whole (completed at submit time, no \
             execution) or in part (only changed sections' cases run).")
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the persistent campaign daemon")
    Term.(
      const serve_run $ logs_term $ state_arg $ socket_arg $ tcp_arg $ capacity_arg
      $ domains_arg $ checkpoint_every_arg $ stuck_after_arg $ lease_ttl_arg
      $ audit_rate_arg $ quarantine_after_arg $ no_cache_arg)

(* ------------------------------------------------------------------ *)
(* ftb worker: attach to a daemon and execute leased campaign shards. *)

let worker_run () connect domains name =
  let domains = Ftb_util.Domains.default_or_exit ?flag:domains () in
  let endpoint = Ftb_dist.Worker.endpoint_of_addr connect in
  let describe =
    match endpoint with
    | Ftb_dist.Worker.Unix_socket path -> path
    | Ftb_dist.Worker.Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  in
  (* A stable default name (host + pid) keeps the worker's reputation in
     one place across reconnects: dispute counts accumulate against the
     name, and a quarantined name stays barred until the operator clears
     it. The daemon sanitizes whatever we send. *)
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "%s-%d" (Unix.gethostname ()) (Unix.getpid ())
  in
  let config =
    Ftb_dist.Worker.config ~domains ~name
      ~log:(fun msg -> Printf.printf "%s\n%!" msg)
      (fun () ->
        match Ftb_dist.Worker.connect_endpoint endpoint with
        | fd -> fd
        | exception Unix.Unix_error (err, _, _) ->
            Printf.eprintf "cannot reach daemon at %s: %s (is `ftb serve` running?)\n"
              describe (Unix.error_message err);
            exit 1)
  in
  Printf.printf "ftb worker: daemon %s, name %s, %d domain%s\n%!" describe name
    domains
    (if domains = 1 then "" else "s");
  match Ftb_dist.Worker.run config with
  | stats ->
      Printf.printf "ftb worker: done — %d shards (%d cases), %d failures, %d stale\n"
        stats.Ftb_dist.Worker.shards stats.Ftb_dist.Worker.cases
        stats.Ftb_dist.Worker.failures stats.Ftb_dist.Worker.stale_acks
  | exception Ftb_dist.Worker_proto.Decode_error msg ->
      Printf.eprintf
        "ftb worker: daemon refused registration: %s\n\
         (a quarantined name needs `ftb workers --clear %s` on the daemon host)\n"
        msg name;
      exit 1

let worker_cmd =
  let connect_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"ADDR"
          ~doc:
            "Daemon address: a Unix-domain socket path (the daemon's \
             $(b,--socket)) or $(b,HOST:PORT) for a daemon serving $(b,--tcp).")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"D"
          ~doc:
            "Worker domains for shard execution. Precedence: this flag; then \
             $(b,FTB_DOMAINS); then the recommended count capped to 8.")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:
            "Stable worker identity for the daemon's trust ledger (default: \
             $(b,hostname-pid)). Dispute counts and quarantine decisions \
             attach to this name; a quarantined name is refused at \
             registration until cleared with $(b,ftb workers --clear).")
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:"Attach to a campaign daemon and execute leased shards"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Registers with a running $(b,ftb serve) daemon, pulls campaign \
              shards under bounded leases, executes them on a local domain \
              pool with the same batched executor as the daemon itself, and \
              streams outcome bytes back. Multiple workers (on this or other \
              machines via $(b,--tcp)) scale a campaign out; outcome bytes \
              are bit-identical to a serial run regardless of worker count or \
              worker failures. Every result frame carries an outcome digest; \
              the daemon spot-audits committed shards by re-executing them \
              and quarantines workers whose results are disputed.";
         ])
    Term.(const worker_run $ logs_term $ connect_arg $ domains_arg $ name_arg)

let with_client socket f =
  let socket = Option.value socket ~default:(socket_of_state default_state_dir) in
  match Service.Client.connect ~socket with
  | client ->
      Fun.protect ~finally:(fun () -> Service.Client.close client) (fun () -> f client)
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "cannot reach daemon at %s: %s (is `ftb serve` running?)\n" socket
        (Unix.error_message err);
      exit 1

let die_error what (e : Service.Client.error) =
  Printf.eprintf "%s failed [%s]: %s\n" what e.Service.Client.code e.Service.Client.message;
  exit 1

let print_progress (e : Service.Client.event) =
  match e with
  | Service.Client.Progress
      { cases_done; cases_total; masked; sdc; crash; cases_per_sec; _ } ->
      Printf.printf "  %d/%d cases (%s) — %d masked, %d sdc, %d crash — %.0f cases/s\n%!"
        cases_done cases_total
        (pct
           (if cases_total = 0 then 0.
            else float_of_int cases_done /. float_of_int cases_total))
        masked sdc crash cases_per_sec
  | Service.Client.Round { round; drawn; masked; sdc; crash; samples_total; cases_total; _ }
    ->
      Printf.printf
        "  round %d: drew %d (%d masked, %d sdc, %d crash) — %d samples, %s of the \
         space\n\
         %!"
        round drawn masked sdc crash samples_total
        (pct
           (if cases_total = 0 then 0.
            else float_of_int samples_total /. float_of_int cases_total))
  | Service.Client.Worker_quarantined { worker; disputes; _ } ->
      Printf.printf
        "  worker %s QUARANTINED (%d disputed shards) — its results re-executed\n%!"
        worker disputes

let print_final id (job : Service.Job.info) =
  Printf.printf "job %d %s\n" id (Service.Job.status_name job.Service.Job.status);
  (match job.Service.Job.status with
  | Service.Job.Failed msg -> Printf.printf "  error: %s\n" msg
  | Service.Job.Stuck ->
      Printf.printf
        "  no shard-wave progress within the daemon's --stuck-after deadline\n\
        \  checkpoint preserved under the state directory; resubmit to retry,\n\
        \  or restart the daemon with a longer deadline\n"
  | _ -> ());
  let c = job.Service.Job.counts in
  if c.Service.Job.cases_done > 0 then
    Printf.printf "  %d cases: %d masked, %d sdc, %d crash\n" c.Service.Job.cases_done
      c.Service.Job.masked c.Service.Job.sdc c.Service.Job.crash;
  (match job.Service.Job.cache with
  | Service.Job.Cache_none -> ()
  | Service.Job.Cache_full ->
      Printf.printf "  served from cache: full (no cases executed)\n"
  | Service.Job.Cache_partial ->
      Printf.printf "  served from cache: partial (only changed sections executed)\n")

let watch_until_done client id =
  match Service.Client.watch ~on_event:print_progress client id with
  | Error e -> die_error "watch" e
  | Ok job -> print_final id job

let endpoint_of socket =
  let socket = Option.value socket ~default:(socket_of_state default_state_dir) in
  (socket, Service.Client.unix_endpoint ~socket)

let die_unreachable socket exn =
  Printf.eprintf
    "cannot reach daemon at %s after retries: %s (is `ftb serve` running?)\n" socket
    (match exn with
    | Unix.Unix_error (err, _, _) -> Unix.error_message err
    | e -> Printexc.to_string e);
  exit 1

let watch_retry_until_done socket endpoint id =
  match Service.Client.watch_retry ~on_event:print_progress endpoint id with
  | Error e -> die_error "watch" e
  | Ok job -> print_final id job
  | exception exn -> die_unreachable socket exn

let submit_run () name socket adaptive aconfig fraction seed model shard_size fuel
    priority trust_cache no_watch idem =
  let mode =
    match (adaptive, fraction) with
    | true, Some _ ->
        Printf.eprintf "--adaptive and --fraction are mutually exclusive\n";
        exit 2
    | true, None -> Service.Job.Adaptive { config = aconfig; seed }
    | false, Some fraction -> Service.Job.Sample { fraction; seed }
    | false, None -> Service.Job.Exhaustive
  in
  let spec =
    {
      (Service.Job.default_spec ~bench:name) with
      Service.Job.mode;
      shard_size;
      priority;
      model;
      trust_cache;
      fuel = (match fuel with Some _ -> fuel | None -> (Service.Job.default_spec ~bench:name).Service.Job.fuel);
    }
  in
  let announce id =
    (* "submitted", not "queued": a cache-served resubmission is already
       completed by the time the ACK arrives. *)
    Printf.printf "job %d submitted (%s, %s, %s)\n%!" id name
      (match mode with
      | Service.Job.Exhaustive -> "exhaustive"
      | Service.Job.Sample { fraction; _ } -> Printf.sprintf "sample %s" (pct fraction)
      | Service.Job.Adaptive { config; _ } ->
          Printf.sprintf "adaptive %s/round"
            (pct config.Ftb_core.Adaptive.round_fraction))
      (Ftb_inject.Models.spec_name model)
  in
  match idem with
  | Some key -> (
      (* An idempotency key makes blind retry safe: the whole submission
         goes through the backoff-retrying client, and a resubmission
         whose first ACK was lost dedupes server-side to the same job. *)
      let sock, endpoint = endpoint_of socket in
      match Service.Client.submit_retry endpoint ~idem:key spec with
      | Error e -> die_error "submit" e
      | exception exn -> die_unreachable sock exn
      | Ok id ->
          announce id;
          if not no_watch then watch_retry_until_done sock endpoint id)
  | None ->
      with_client socket (fun client ->
          match Service.Client.submit client spec with
          | Error e -> die_error "submit" e
          | Ok id ->
              announce id;
              if not no_watch then watch_until_done client id)

let submit_cmd =
  let adaptive_arg =
    Arg.(
      value & flag
      & info [ "adaptive" ]
          ~doc:
            "Queue a sec. 3.4 adaptive campaign (checkpointed per round, resumable \
             bit-identically across daemon restarts; distributed over attached \
             $(b,ftb worker) processes when any are live). The converged boundary is \
             published to the daemon's boundary store, and a resubmission of the \
             exact same campaign (benchmark, model, fuel, adaptive flags, seed) is \
             served from it instantly with zero fresh samples.")
  in
  let fraction_opt_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "fraction"; "f" ] ~docv:"F"
          ~doc:
            "Submit a Monte-Carlo sample of this fraction of the (site, bit) space \
             instead of the exhaustive (checkpointed, resumable) campaign.")
  in
  let shard_size_arg =
    Arg.(
      value & opt int 4096
      & info [ "shard-size" ] ~docv:"N"
          ~doc:
            "Cases per shard: the unit a worker leases, a failure retries and a checkpoint \
             records. Progress events, checkpoints and cancellation land between shard \
             waves; a wave holds one shard per executor at first and doubles while each \
             takes under 0.25 s.")
  in
  let fuel_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"N" ~doc:"Per-case dynamic-instruction budget.")
  in
  let priority_arg =
    Arg.(
      value & opt int 0
      & info [ "priority" ] ~docv:"P" ~doc:"Higher priorities run first; FIFO within one.")
  in
  let trust_cache_arg =
    Arg.(
      value & flag
      & info [ "trust-cache" ]
          ~doc:
            "Accept cached profiles with $(i,unaudited) fleet provenance for \
             this job. By default a full-boundary cache hit whose bytes were \
             computed by fleet workers the daemon never audited (e.g. \
             $(b,--audit-rate 0)) is refused and the campaign re-executes; \
             profiles with $(b,local) or audited-fleet provenance are always \
             eligible.")
  in
  let no_watch_arg =
    Arg.(
      value & flag
      & info [ "no-watch"; "detach" ]
          ~doc:"Print the job id and return instead of streaming progress until done.")
  in
  let idem_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "idem" ] ~docv:"KEY"
          ~doc:
            "Idempotency key. Enables the retrying client (backoff tuned by \
             $(b,FTB_RETRY_BASE), $(b,FTB_RETRY_CAP), $(b,FTB_RETRY_ATTEMPTS)): \
             a resubmission with the same key maps to the already-created job \
             instead of running the campaign twice.")
  in
  Cmd.v
    (Cmd.info "submit" ~doc:"Queue a campaign on a running daemon")
    Term.(
      const submit_run $ logs_term $ bench_arg $ socket_arg $ adaptive_arg
      $ adaptive_config_term $ fraction_opt_arg $ seed_arg $ model_arg $ shard_size_arg
      $ fuel_arg $ priority_arg $ trust_cache_arg $ no_watch_arg $ idem_arg)

let jobs_run () socket json =
  with_client socket (fun client ->
      match Service.Client.list client with
      | Error e -> die_error "list" e
      | Ok jobs ->
          if json then
            print_endline
              (Service.Json.to_string
                 (Service.Json.List (List.map Service.Job.info_to_json jobs)))
          else if jobs = [] then print_endline "no jobs"
          else begin
            Printf.printf "%-4s %-10s %-10s %-9s %-12s %-8s %s\n" "id" "bench" "mode"
              "prio" "status" "cache" "progress";
            List.iter
              (fun (j : Service.Job.info) ->
                let c = j.Service.Job.counts in
                Printf.printf "%-4d %-10s %-10s %-9d %-12s %-8s %d/%d\n"
                  j.Service.Job.id j.Service.Job.spec.Service.Job.bench
                  (match j.Service.Job.spec.Service.Job.mode with
                  | Service.Job.Exhaustive -> "exhaustive"
                  | Service.Job.Sample _ -> "sample"
                  | Service.Job.Adaptive _ -> "adaptive")
                  j.Service.Job.spec.Service.Job.priority
                  (Service.Job.status_name j.Service.Job.status)
                  (Service.Job.cache_name j.Service.Job.cache)
                  c.Service.Job.cases_done c.Service.Job.cases_total)
              jobs
          end)

let jobs_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the job list as JSON.")
  in
  Cmd.v
    (Cmd.info "jobs" ~doc:"List jobs known to a running daemon")
    Term.(const jobs_run $ logs_term $ socket_arg $ json_arg)

let job_id_arg =
  Arg.(required & pos 0 (some int) None & info [] ~docv:"ID" ~doc:"Job id.")

let watch_cmd =
  (* Watching is read-only, so it always goes through the reconnecting
     client: a daemon restart mid-stream shows up as a short pause, not a
     dropped session, and resumed streams never repeat a wave. *)
  let run () socket id =
    let sock, endpoint = endpoint_of socket in
    watch_retry_until_done sock endpoint id
  in
  Cmd.v
    (Cmd.info "watch" ~doc:"Stream a daemon job's progress until it finishes")
    Term.(const run $ logs_term $ socket_arg $ job_id_arg)

let cancel_cmd =
  let run () socket id =
    with_client socket (fun client ->
        match Service.Client.cancel client id with
        | Error e -> die_error "cancel" e
        | Ok job ->
            Printf.printf "job %d %s\n" id
              (match job.Service.Job.status with
              | Service.Job.Running -> "cancellation requested (at next shard wave)"
              | status -> Service.Job.status_name status))
  in
  Cmd.v
    (Cmd.info "cancel" ~doc:"Cancel a queued or running daemon job")
    Term.(const run $ logs_term $ socket_arg $ job_id_arg)

(* ------------------------------------------------------------------ *)
(* ftb cache: inspect and maintain the daemon's profile store.         *)

let cache_run () state action keep prefix all from_worker =
  let root = Service.Server.cache_dir ~state_dir:state in
  let store = Ftb_compose.Store.open_ ~root in
  match action with
  | `Stats ->
      let s = Ftb_compose.Store.stats store in
      Printf.printf
        "cache %s\n\
        \  %d entries: %d section profiles, %d boundary profiles (%d bytes)\n\
        \  %d with unaudited fleet provenance (refused without --trust-cache)\n\
        \  %d quarantined\n"
        root s.Ftb_compose.Store.entries s.Ftb_compose.Store.sections
        s.Ftb_compose.Store.boundaries s.Ftb_compose.Store.bytes
        s.Ftb_compose.Store.unaudited s.Ftb_compose.Store.quarantined
  | `Gc ->
      let removed = Ftb_compose.Store.gc store ~keep in
      Printf.printf "cache gc: removed %d entr%s, kept the newest %d\n" removed
        (if removed = 1 then "y" else "ies")
        keep
  | `Invalidate -> (
      match (prefix, all, from_worker) with
      | None, false, None ->
          Printf.eprintf
            "cache invalidate needs --prefix KEYPREFIX, --from-worker NAME or --all\n";
          exit 2
      | Some _, true, _ | Some _, _, Some _ | _, true, Some _ ->
          Printf.eprintf "--prefix, --all and --from-worker are mutually exclusive\n";
          exit 2
      | Some p, false, None ->
          let removed = Ftb_compose.Store.invalidate store ~prefix:p in
          Printf.printf "cache invalidate: removed %d entr%s with key prefix %s\n"
            removed
            (if removed = 1 then "y" else "ies")
            p
      | None, false, Some worker ->
          let removed = Ftb_compose.Store.invalidate_worker store ~worker in
          Printf.printf
            "cache invalidate: removed %d entr%s with provenance from worker %s\n"
            removed
            (if removed = 1 then "y" else "ies")
            worker
      | None, true, None ->
          let removed = Ftb_compose.Store.invalidate store ~prefix:"" in
          Printf.printf "cache invalidate: removed all %d entr%s\n" removed
            (if removed = 1 then "y" else "ies"))

let cache_cmd =
  let action_arg =
    let actions = [ ("stats", `Stats); ("gc", `Gc); ("invalidate", `Invalidate) ] in
    Arg.(
      required
      & pos 0 (some (enum actions)) None
      & info [] ~docv:"ACTION" ~doc:"One of $(b,stats), $(b,gc), $(b,invalidate).")
  in
  let keep_arg =
    Arg.(
      value & opt int 4096
      & info [ "keep" ] ~docv:"N"
          ~doc:"For $(b,gc): keep the N most recently written entries.")
  in
  let prefix_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "prefix" ] ~docv:"KEYPREFIX"
          ~doc:"For $(b,invalidate): remove entries whose content key starts with this.")
  in
  let all_arg =
    Arg.(
      value & flag
      & info [ "all" ] ~doc:"For $(b,invalidate): remove every cache entry.")
  in
  let from_worker_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "from-worker" ] ~docv:"NAME"
          ~doc:
            "For $(b,invalidate): remove every entry whose provenance names \
             this fleet worker — the blast-radius purge after a quarantine \
             (the daemon runs the same purge automatically when it convicts \
             a worker; this covers stores the liar touched before the \
             conviction, audited entries included).")
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:"Inspect or prune the daemon's compositional profile cache"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The daemon keeps content-addressed outcome profiles under \
              $(b,<state>/cache): one per program section and one per whole \
              campaign boundary. $(b,stats) summarizes the store, $(b,gc) \
              bounds it to the newest N entries, and $(b,invalidate) removes \
              entries by content-key prefix, by fleet-worker provenance \
              ($(b,--from-worker)), or all of them. Corrupt entries are never \
              served; they are moved to a $(b,quarantine/) sibling and \
              rebuilt by the next campaign.";
         ])
    Term.(
      const cache_run $ logs_term $ state_arg $ action_arg $ keep_arg $ prefix_arg
      $ all_arg $ from_worker_arg)

(* ------------------------------------------------------------------ *)
(* ftb workers: the daemon's fleet trust ledger.                       *)

let workers_run () socket json clear =
  let socket = Option.value socket ~default:(socket_of_state default_state_dir) in
  let fd =
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX socket)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         raise e);
      fd
    with
    | fd -> fd
    | exception Unix.Unix_error (err, _, _) ->
        Printf.eprintf "cannot reach daemon at %s: %s (is `ftb serve` running?)\n"
          socket (Unix.error_message err);
        exit 1
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let module P = Ftb_dist.Worker_proto in
      match clear with
      | Some name -> (
          Service.Wire.write fd (P.workers_clear_request ~name);
          match P.parse_cleared (Service.Wire.read fd) with
          | true -> Printf.printf "worker %s cleared: it may register again\n" name
          | false ->
              Printf.printf "worker %s was not quarantined; nothing to clear\n" name
          | exception P.Decode_error msg ->
              Printf.eprintf "workers --clear failed: %s\n" msg;
              exit 1)
      | None -> (
          Service.Wire.write fd P.workers_request;
          let frame = Service.Wire.read fd in
          if json then print_endline (Service.Json.to_string frame)
          else
            match P.parse_workers frame with
            | exception P.Decode_error msg ->
                Printf.eprintf "workers failed: %s\n" msg;
                exit 1
            | [], [] -> print_endline "no workers attached, none quarantined"
            | rows, barred ->
                if rows <> [] then begin
                  Printf.printf "%-4s %-20s %-7s %-6s %-9s %-7s %-8s %s\n" "wid"
                    "name" "domains" "age" "committed" "failed" "disputed" "status";
                  List.iter
                    (fun (r : P.worker_row) ->
                      Printf.printf "%-4d %-20s %-7d %-6.1f %-9d %-7d %-8d %s\n"
                        r.P.row_wid r.P.row_name r.P.row_domains r.P.row_age
                        r.P.row_committed r.P.row_failed r.P.row_disputed
                        (if r.P.row_quarantined then "QUARANTINED" else "ok"))
                    rows
                end;
                List.iter
                  (fun (name, disputes) ->
                    Printf.printf
                      "barred: %s (%d disputed shards) — clear with `ftb workers \
                       --clear %s`\n"
                      name disputes name)
                  barred))

let workers_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the raw worker-stats frame as JSON.")
  in
  let clear_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "clear" ] ~docv:"NAME"
          ~doc:
            "Lift a worker's quarantine: its name may register again and its \
             dispute count restarts from zero. Purge the profiles it \
             poisoned separately ($(b,ftb cache invalidate --from-worker)) — \
             clearing the name does not restore trust in old bytes.")
  in
  Cmd.v
    (Cmd.info "workers"
       ~doc:"List a daemon's fleet workers, dispute counts and quarantines"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "The trust ledger of a running $(b,ftb serve) daemon: every \
              attached worker with its lifetime committed / failed / \
              disputed shard counts, plus the names currently barred by \
              quarantine. A worker is quarantined when spot audits \
              (re-execution of committed shards, $(b,--audit-rate)) dispute \
              too many of its results ($(b,--quarantine-after)).";
         ])
    Term.(const workers_run $ logs_term $ socket_arg $ json_arg $ clear_arg)

(* ------------------------------------------------------------------ *)
(* ftb boundary query/list/export/gc: the servable boundary store.     *)

module Bstore = Ftb_plan.Boundary_store

let open_bstore state =
  Bstore.open_ ~root:(Service.Server.boundaries_dir ~state_dir:state)

let bstore_model_arg =
  Arg.(
    value
    & opt (some model_conv) None
    & info [ "model" ] ~docv:"MODEL"
        ~doc:
          "Restrict the lookup to boundaries of this fault model (default: the \
           newest stored entry of any model).")

let find_latest_or_die bs name model =
  match Bstore.find_latest bs ~bench:name ?spec:model () with
  | Some entry -> entry
  | None ->
      Printf.eprintf
        "no stored boundary for %s under %s (run `ftb submit %s --adaptive` first)\n"
        name (Bstore.root bs) name;
      exit 1

let boundary_entry_line (e : Bstore.entry) =
  Printf.sprintf "%-10s %-14s %6d %7d %8d %-14s %-8s %s" e.Bstore.bench
    (Ftb_inject.Models.spec_to_string e.Bstore.spec)
    e.Bstore.sites e.Bstore.rounds e.Bstore.samples
    (Ftb_core.Adaptive.stop_reason_to_string e.Bstore.stop)
    (pct e.Bstore.uncertainty) e.Bstore.key

let boundary_query_cmd =
  let site_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "site" ] ~docv:"I" ~doc:"Dynamic instruction (injection site) to query.")
  in
  let bit_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "bit" ] ~docv:"B"
          ~doc:
            "Case index within the model's per-site width (the flipped bit for \
             bit-flip models).")
  in
  let run () state name site bit model =
    let bs = open_bstore state in
    let entry = find_latest_or_die bs name model in
    match Bstore.query entry ~site ~bit with
    | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        exit 2
    | p ->
        Printf.printf "%s (%s): site %d bit %d -> %s\n" name
          (Ftb_inject.Models.spec_to_string entry.Bstore.spec)
          site bit
          (match p.Bstore.outcome with `Masked -> "masked" | `Sdc -> "sdc");
        Printf.printf "  injected error %g vs site threshold %g\n" p.Bstore.injected_error
          p.Bstore.threshold;
        Printf.printf "  site support: %d masked observations; entry uncertainty %s\n"
          p.Bstore.site_support
          (pct p.Bstore.entry_uncertainty);
        Printf.printf
          "  from a %d-round adaptive campaign: %d samples (%s of the space), %s, \
           seed %d, provenance %s\n"
          entry.Bstore.rounds entry.Bstore.samples
          (pct entry.Bstore.sample_fraction)
          (Ftb_core.Adaptive.stop_reason_to_string entry.Bstore.stop)
          entry.Bstore.seed entry.Bstore.prov
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Predict one (site, bit) case from a stored boundary — zero kernel execution")
    Term.(
      const run $ logs_term $ state_arg $ bench_arg $ site_arg $ bit_arg
      $ bstore_model_arg)

let boundary_list_cmd =
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit the entry list as JSON.")
  in
  let run () state json =
    let bs = open_bstore state in
    let entries = Bstore.list bs in
    if json then begin
      let module J = Service.Json in
      print_endline
        (J.to_string
           (J.List
              (List.map
                 (fun (e : Bstore.entry) ->
                   J.Obj
                     [
                       ("key", J.String e.Bstore.key);
                       ("bench", J.String e.Bstore.bench);
                       ("model", J.String (Ftb_inject.Models.spec_to_string e.Bstore.spec));
                       ("sites", J.Int e.Bstore.sites);
                       ("seed", J.Int e.Bstore.seed);
                       ("rounds", J.Int e.Bstore.rounds);
                       ("samples", J.Int e.Bstore.samples);
                       ("sample_fraction", J.Float e.Bstore.sample_fraction);
                       ("uncertainty", J.Float e.Bstore.uncertainty);
                       ( "stop",
                         J.String (Ftb_core.Adaptive.stop_reason_to_string e.Bstore.stop)
                       );
                       ("prov", J.String e.Bstore.prov);
                       ("created", J.Float e.Bstore.created);
                     ])
                 entries)))
    end
    else if entries = [] then print_endline "no stored boundaries"
    else begin
      Printf.printf "%-10s %-14s %6s %7s %8s %-14s %-8s %s\n" "bench" "model" "sites"
        "rounds" "samples" "stop" "uncert" "key";
      List.iter (fun e -> print_endline (boundary_entry_line e)) entries
    end
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List every stored adaptive boundary")
    Term.(const run $ logs_term $ state_arg $ json_arg)

let boundary_export_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Write the JSON export here instead of stdout.")
  in
  let run () state name model out =
    let bs = open_bstore state in
    let e = find_latest_or_die bs name model in
    let module J = Service.Json in
    let floats a = J.List (List.map (fun f -> J.Float f) (Array.to_list a)) in
    let json =
      J.Obj
        [
          ("key", J.String e.Bstore.key);
          ("bench", J.String e.Bstore.bench);
          ("fingerprint", J.String e.Bstore.fingerprint);
          ("model", J.String (Ftb_inject.Models.spec_to_string e.Bstore.spec));
          ( "fuel",
            match e.Bstore.fuel with Some n -> J.Int n | None -> J.Null );
          ("round_fraction", J.Float e.Bstore.config.Ftb_core.Adaptive.round_fraction);
          ( "stop_sdc_fraction",
            J.Float e.Bstore.config.Ftb_core.Adaptive.stop_sdc_fraction );
          ("max_rounds", J.Int e.Bstore.config.Ftb_core.Adaptive.max_rounds);
          ("filter", J.Bool e.Bstore.config.Ftb_core.Adaptive.filter);
          ("bias", J.Bool e.Bstore.config.Ftb_core.Adaptive.bias);
          ("seed", J.Int e.Bstore.seed);
          ("sites", J.Int e.Bstore.sites);
          ("rounds", J.Int e.Bstore.rounds);
          ("samples", J.Int e.Bstore.samples);
          ("masked", J.Int e.Bstore.masked);
          ("sdc", J.Int e.Bstore.sdc);
          ("crash", J.Int e.Bstore.crash);
          ("sample_fraction", J.Float e.Bstore.sample_fraction);
          ("uncertainty", J.Float e.Bstore.uncertainty);
          ("stop", J.String (Ftb_core.Adaptive.stop_reason_to_string e.Bstore.stop));
          ("prov", J.String e.Bstore.prov);
          ("created", J.Float e.Bstore.created);
          ("thresholds", floats e.Bstore.thresholds);
          ( "support",
            J.List (List.map (fun n -> J.Int n) (Array.to_list e.Bstore.support)) );
          ("golden_values", floats e.Bstore.golden_values);
        ]
    in
    match out with
    | None -> print_endline (J.to_string json)
    | Some path ->
        let oc = open_out_bin path in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () ->
            output_string oc (J.to_string json);
            output_char oc '\n');
        Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "export"
       ~doc:
         "Export a stored boundary (thresholds, support, golden values, provenance) \
          as JSON")
    Term.(const run $ logs_term $ state_arg $ bench_arg $ bstore_model_arg $ out_arg)

let boundary_gc_cmd =
  let keep_arg =
    Arg.(
      value & opt int 1024
      & info [ "keep" ] ~docv:"N" ~doc:"Keep the N most recently created entries.")
  in
  let run () state keep =
    if keep < 0 then begin
      Printf.eprintf "--keep must be non-negative (got %d)\n" keep;
      exit 2
    end;
    let removed = Bstore.gc (open_bstore state) ~keep in
    Printf.printf "boundary gc: removed %d entr%s, kept the newest %d\n" removed
      (if removed = 1 then "y" else "ies")
      keep
  in
  Cmd.v
    (Cmd.info "gc" ~doc:"Drop all but the newest N stored boundaries")
    Term.(const run $ logs_term $ state_arg $ keep_arg)

let boundary_infer_cmd =
  Cmd.v
    (Cmd.info "infer"
       ~doc:"Infer a fault tolerance boundary from a fresh random sample")
    boundary_infer_term

let boundary_cmd =
  Cmd.group
    (Cmd.info "boundary"
       ~doc:
         "Infer a boundary from a random sample, or query the daemon's servable \
          boundary store"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "$(b,infer) samples the kernel fresh and infers a fault tolerance \
              boundary from the sample. The other subcommands instead read the \
              boundary store a daemon keeps under $(b,<state>/boundaries): every \
              completed adaptive job publishes its converged boundary there \
              (thresholds, per-site support, sec. 3.6 uncertainty, fault model, \
              golden fingerprint, sample fraction, provenance) as a CRC-enveloped \
              content-addressed artifact. $(b,query) answers one (site, bit) case \
              with zero kernel execution; $(b,list), $(b,export) and $(b,gc) \
              inspect and bound the store.";
         ])
    [
      boundary_infer_cmd;
      boundary_query_cmd;
      boundary_list_cmd;
      boundary_export_cmd;
      boundary_gc_cmd;
    ]

(* ------------------------------------------------------------------ *)

let ir_cmd =
  let run () name dump pass_stats =
    let ir =
      match Ftb_kernels.Ir_kernels.find name with
      | ir -> ir
      | exception Invalid_argument msg ->
          Printf.eprintf "%s\n" msg;
          exit 2
    in
    let optimized, stats = Ftb_ir.Pipeline.optimize_with_report ir in
    if pass_stats then begin
      Printf.printf "%-8s %6s %6s %8s %6s %6s %8s\n" "pass" "stmts" "stmts'" "delta" "ops"
        "ops'" "delta";
      List.iter
        (fun s ->
          Printf.printf "%-8s %6d %6d %8d %6d %6d %8d\n" s.Ftb_ir.Pipeline.pass_name
            s.Ftb_ir.Pipeline.stmts_before s.Ftb_ir.Pipeline.stmts_after
            (s.Ftb_ir.Pipeline.stmts_after - s.Ftb_ir.Pipeline.stmts_before)
            s.Ftb_ir.Pipeline.ops_before s.Ftb_ir.Pipeline.ops_after
            (s.Ftb_ir.Pipeline.ops_after - s.Ftb_ir.Pipeline.ops_before))
        stats;
      Printf.printf "%-8s %6d %6d %8d %6d %6d %8d\n" "total"
        (Ftb_ir.Passes.stmt_count ir)
        (Ftb_ir.Passes.stmt_count optimized)
        (Ftb_ir.Passes.stmt_count optimized - Ftb_ir.Passes.stmt_count ir)
        (Ftb_ir.Passes.op_count ir)
        (Ftb_ir.Passes.op_count optimized)
        (Ftb_ir.Passes.op_count optimized - Ftb_ir.Passes.op_count ir)
    end;
    if dump || not pass_stats then begin
      if pass_stats then print_newline ();
      print_string (Ftb_ir.Ir.to_string optimized)
    end
  in
  let kernel_arg =
    let doc =
      Printf.sprintf "IR kernel to inspect. One of: %s."
        (String.concat ", " (List.map fst Ftb_kernels.Ir_kernels.suite))
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"KERNEL" ~doc)
  in
  let dump_arg =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:
            "Print the optimized IR listing (the program the batched campaign executor \
             actually runs). This is the default when $(b,--pass-stats) is not given.")
  in
  let pass_stats_arg =
    Arg.(
      value & flag
      & info [ "pass-stats" ]
          ~doc:
            "Print a per-pass table of static statement and expression-node counts \
             before/after each optimization pass.")
  in
  Cmd.v
    (Cmd.info "ir"
       ~doc:"Inspect an IR kernel after the optimizing pipeline"
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Builds the named kernel's IR at its campaign configuration, runs the \
              optimizing pass pipeline with the structural validator between passes \
              (exactly what the kernel suite does when lowering), and prints the \
              result. The dynamic event stream — the fault-injection site space — is \
              preserved bitwise by construction, so what this prints is \
              site-for-site comparable with the unoptimized form.";
         ])
    Term.(const run $ logs_term $ kernel_arg $ dump_arg $ pass_stats_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "fault tolerance boundary analysis (PPoPP'21 reproduction)" in
  Cmd.group (Cmd.info "ftb" ~version:"1.0.0" ~doc)
    [
      list_cmd; campaign_cmd; boundary_cmd; adaptive_cmd; protect_cmd; models_cmd;
      propagation_cmd; report_cmd; ir_cmd; serve_cmd; worker_cmd; submit_cmd;
      jobs_cmd; watch_cmd; cancel_cmd; cache_cmd; workers_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
