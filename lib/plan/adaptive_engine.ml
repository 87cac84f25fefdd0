module Adaptive = Ftb_core.Adaptive
module Golden = Ftb_trace.Golden
module Models = Ftb_inject.Models
module Persist = Ftb_inject.Persist
module Sample_run = Ftb_inject.Sample_run
module Fingerprint = Ftb_util.Fingerprint
module Rng = Ftb_util.Rng

exception Cancelled

type exec = round:int -> cases:int array -> Sample_run.t array

type stats = { fresh_samples : int; resumed_samples : int; resumed_rounds : int }

let run ?(config = Adaptive.default_config) ?(spec = Models.default_spec) ?fuel ?checkpoint
    ?exec ?on_round ?(cancel = fun () -> false) ~name ~seed golden =
  Adaptive.check_config config;
  let sites = Golden.sites golden in
  let fingerprint = Fingerprint.of_floats golden.Golden.values in
  let exec =
    match exec with
    | Some f -> f
    | None ->
        fun ~round:_ ~cases -> Array.map (Sample_run.run_case_model ?fuel spec golden) cases
  in
  (* A checkpoint binds to one campaign identity: same kernel (name +
     golden fingerprint), model, config, fuel and seed. Anything else on
     disk is a different campaign's state — ignored, not quarantined
     (it is valid, just not ours); structural corruption is quarantined
     and the campaign restarts cold. *)
  let resume =
    Option.bind checkpoint (fun path ->
        Option.bind (Persist.load_or_quarantine ~path (fun path -> Round_checkpoint.load ~path))
          (fun cp ->
            if
              cp.Round_checkpoint.name = name
              && cp.Round_checkpoint.sites = sites
              && cp.Round_checkpoint.fingerprint = fingerprint
              && Models.spec_equal cp.Round_checkpoint.spec spec
              && cp.Round_checkpoint.config = config
              && cp.Round_checkpoint.fuel = fuel
              && cp.Round_checkpoint.seed = seed
            then Some cp
            else None))
  in
  match resume with
  | Some ({ Round_checkpoint.stop = Some reason; _ } as cp) ->
      (* Finished campaign: replay the result without drawing a thing. *)
      let state =
        Adaptive.state_restore ~config ~spec golden ~rounds:cp.Round_checkpoint.rounds
          cp.Round_checkpoint.samples
      in
      ( Adaptive.finish state reason,
        {
          fresh_samples = 0;
          resumed_samples = Array.length cp.Round_checkpoint.samples;
          resumed_rounds = cp.Round_checkpoint.rounds;
        } )
  | _ ->
      let rng, state, initial_pending, resumed_samples, resumed_rounds =
        match resume with
        | Some cp ->
            ( Rng.of_state cp.Round_checkpoint.rng_state,
              Adaptive.state_restore ~config ~spec golden
                ~rounds:cp.Round_checkpoint.rounds cp.Round_checkpoint.samples,
              cp.Round_checkpoint.pending,
              Array.length cp.Round_checkpoint.samples,
              cp.Round_checkpoint.rounds )
        | None ->
            (Rng.create ~seed, Adaptive.state_create ~config ~spec golden, None, 0, 0)
      in
      (* The campaign so far is written once; each round then appends its
         draw and its samples. *)
      let log =
        Option.map
          (fun path ->
            Round_checkpoint.open_log ~path
              {
                Round_checkpoint.name;
                sites;
                spec;
                fuel;
                fingerprint;
                config;
                seed;
                rng_state = Rng.state rng;
                rounds = Adaptive.state_rounds state;
                samples = Adaptive.state_samples state;
                pending = initial_pending;
                stop = None;
              })
          checkpoint
      in
      let logged f = Option.iter f log in
      let fresh = ref 0 in
      let pending = ref initial_pending in
      let stop = ref Adaptive.Round_cap in
      Fun.protect
        ~finally:(fun () -> logged Round_checkpoint.close_log)
        (fun () ->
          try
            while true do
              (* Any pending draw is already logged. *)
              if cancel () then raise Cancelled;
              let cases =
                match !pending with
                | Some cases ->
                    (* The killed run already drew this round; re-drawing
                       would consume fresh RNG output and diverge from the
                       serial oracle. *)
                    pending := None;
                    cases
                | None -> (
                    match Adaptive.plan_round state rng with
                    | None ->
                        stop := Adaptive.Pool_exhausted;
                        raise Exit
                    | Some cases ->
                        logged (fun l ->
                            Round_checkpoint.append_draw l ~rng_state:(Rng.state rng) cases);
                        cases)
              in
              let round = Adaptive.state_rounds state + 1 in
              let samples = exec ~round ~cases in
              if Array.length samples <> Array.length cases then
                invalid_arg
                  (Printf.sprintf
                     "Adaptive_engine: executor returned %d samples for a %d-case round"
                     (Array.length samples) (Array.length cases));
              fresh := !fresh + Array.length samples;
              let verdict = Adaptive.fold_round ?on_round state ~cases ~samples in
              logged (fun l -> Round_checkpoint.append_round l samples);
              match verdict with
              | `Stop reason ->
                  stop := reason;
                  raise Exit
              | `Continue -> ()
            done
          with Exit -> logged (fun l -> Round_checkpoint.append_stop l !stop));
      (Adaptive.finish state !stop, { fresh_samples = !fresh; resumed_samples; resumed_rounds })
