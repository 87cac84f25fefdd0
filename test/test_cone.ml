(* Dependent-cone replay: campaign outcome bytes through the optimized,
   cone-enabled fast path must be bit-identical to the reference — the
   structured tree-walking interpreter run per-case — for every fault
   model, the stochastic random-value model included, under fuel on
   either side of the golden step count, at every lane width, and when a
   lane batch raises; the fallbacks (fuel below the golden step count, a
   program without its cone plan) must change nothing. This is the
   acceptance bar of the specializer: same bytes, only faster. The same
   holds for propagation samples on the cone (the traced one-lane scan):
   outcome, crash reason, injected error and every nonzero deviation
   equal the traced machine's. Replay must also stay small: a site
   allocates with its cone, not with the program, and one plan is
   retained at a time. *)

module Ir = Ftb_ir.Ir
module Pipeline = Ftb_ir.Pipeline
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Ir_kernels = Ftb_kernels.Ir_kernels
module Programs = Ftb_ir.Programs

(* Every IR suite kernel at a tiny configuration (mirroring
   [Test_ir_kernels.tiny] where it has one); [normalize]'s float branch
   forces cone fallback on branch-feeding sites. *)
let kernels =
  [
    ("ir.cg", fun () -> Ir_kernels.cg ~grid:3 ~iterations:3 ~tolerance:1e-4 ~record_init:true);
    ("ir.lu", fun () -> Ir_kernels.lu ~n:6 ~block:3 ~seed:7 ~tolerance:1e-4);
    ("ir.fft", fun () -> Ir_kernels.fft ~n1:4 ~n2:4 ~seed:11 ~tolerance:1.0);
    ("ir.jacobi", fun () -> Ir_kernels.jacobi ~grid:3 ~sweeps:2 ~tolerance:1e-4);
    ("ir.gemm", fun () -> Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3);
    ("ir.matmul", fun () -> Ir_kernels.matmul ~n:4 ~seed:9 ~tolerance:1e-3);
    ("ir.stencil", fun () -> Ir_kernels.stencil ~size:4 ~sweeps:2 ~seed:3 ~tolerance:1e-4);
    ("matvec", fun () -> Ir_kernels.matvec ~n:4 ~reps:3 ~seed:5 ~tolerance:1e-3);
    ("ir.normalize", fun () -> Programs.normalize ~n:12 ~seed:15 ~tolerance:1e-9);
    ("ir.dot", fun () -> Programs.dot ~n:8 ~seed:11 ~tolerance:1e-9);
    ("ir.saxpy", fun () -> Programs.saxpy ~n:8 ~seed:12 ~tolerance:1e-9);
    ("ir.stencil3", fun () -> Programs.stencil3 ~n:8 ~sweeps:2 ~seed:13 ~tolerance:1e-9);
    ("ir.matvec", fun () -> Programs.matvec ~n:4 ~seed:14 ~tolerance:1e-9);
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

(* The cone-free reference: the same program without its cone capability,
   so every site takes the prefix-snapshot tier. Same trace, so the same
   fingerprint, case space and store keys ([test_cone_flag_changes_nothing]
   checks that). *)
let cone_free (g : Golden.t) = Golden.run { g.Golden.program with Program.cone = None }

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

(* Fuel on either side of the golden step count: below it the watchdog
   can fire inside a case, so the cone tier must step aside for the
   snapshot tier; at or above it a covered case (golden control path,
   at most the golden step count) cannot exhaust fuel, so the cone tier
   runs. Bytes must match the reference under the same fuel either way,
   serially and on two domains, for every discrete model and the
   stochastic one: the interpreted per-case reference for the paper's
   bit-flip-64 model, the prefix-snapshot tier for the others (whose own
   fuel exactness against full per-case runs the executor tests check),
   which keeps the suite's run time small. *)
let test_fuel_forces_fallback_identically () =
  List.iter
    (fun (name, fast, interp) ->
      let steps = Golden.sites fast in
      List.iter
        (fun fuel ->
          List.iter
            (fun spec ->
              let expected =
                if Models.spec_equal spec Models.default_spec then
                  reference_bytes ~fuel spec interp
                else
                  (Executor.ground_truth_model ~domains:1 ~fuel spec (cone_free fast))
                    .Ground_truth.outcomes
              in
              List.iter
                (fun domains ->
                  let gt = Executor.ground_truth_model ~domains ~fuel spec fast in
                  Alcotest.(check bool)
                    (Printf.sprintf "%s under %s, fuel %d (golden steps %+d), %d domain(s)"
                       name (Models.spec_name spec) fuel (fuel - steps) domains)
                    true
                    (Bytes.equal expected gt.Ground_truth.outcomes))
                [ 1; 2 ])
            (discrete_specs @ [ stochastic_spec ]))
        [ steps - 1; steps; steps + 1 ])
    (Lazy.force fixtures)

let plan_of name (g : Golden.t) =
  match g.Golden.program.Program.cone with
  | None -> Alcotest.failf "%s: no cone capability" name
  | Some force -> (
      match force () with
      | None -> Alcotest.failf "%s: cone plan failed to build" name
      | Some plan -> plan)

(* [g]'s program with its cone plan passed through [wrap]. *)
let with_plan (g : Golden.t) wrap =
  let force () =
    match g.Golden.program.Program.cone with
    | None -> None
    | Some force -> Option.map wrap (force ())
  in
  Golden.run (Program.with_cone g.Golden.program force)

let test_fuel_gate_takes_cone () =
  (* Identical bytes alone would also pass with the cone tier switched
     off; count the lane batches the executor actually asks for. *)
  List.iter
    (fun (name, fast, _) ->
      let batches = Atomic.make 0 in
      let counted =
        with_plan fast (fun plan ->
            {
              plan with
              Program.cone_lanes =
                (fun ~site ->
                  Atomic.incr batches;
                  plan.Program.cone_lanes ~site);
            })
      in
      let steps = Golden.sites fast in
      List.iter
        (fun (fuel, expect) ->
          Atomic.set batches 0;
          ignore (Executor.ground_truth_model ?fuel ~domains:1 Models.default_spec counted);
          Alcotest.(check int)
            (Printf.sprintf "%s: sites offered to the cone at fuel %s" name
               (match fuel with None -> "none" | Some f -> string_of_int f))
            expect (Atomic.get batches))
        [ (None, steps); (Some steps, steps); (Some 10_000_000, steps); (Some (steps - 1), 0) ])
    (Lazy.force fixtures)

let byte_of_outcome = function
  | Program.Cone_masked -> '\000'
  | Program.Cone_sdc -> '\001'
  | Program.Cone_crash reason -> Ground_truth.crash_byte reason

let test_lane_widths () =
  (* One lane runner call per site at each model's width (64, 32, the
     stochastic width), lane by lane against the prefix-snapshot tier;
     then, on the first, middle and last site, one batch far wider than a
     replay chunk (several chunks), lane [l] flipping bit [l mod 64],
     against the 64-bit bytes. *)
  let snapshot spec nocone =
    (Executor.ground_truth_model ~domains:1 spec nocone).Ground_truth.outcomes
  in
  List.iter
    (fun (name, fast, _) ->
      let plan = plan_of name fast in
      let nocone = cone_free fast in
      let sites = Golden.sites fast in
      List.iter
        (fun spec ->
          let width = Models.spec_width spec in
          let expected = snapshot spec nocone in
          let got = Bytes.copy expected in
          for site = 0 to sites - 1 do
            match plan.Program.cone_lanes ~site with
            | None -> ()
            | Some run ->
                let out = Array.make width Program.Cone_masked in
                run (fun lane -> Models.case_corrupt spec ~case:((site * width) + lane)) out;
                Array.iteri (fun lane o -> Bytes.set got ((site * width) + lane) (byte_of_outcome o)) out
          done;
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d-lane batches under %s = snapshot-tier bytes" name width
               (Models.spec_name spec))
            true (Bytes.equal expected got))
        [
          Models.default_spec;
          { Models.model = Models.Bit_flip_32; seed = 0 };
          stochastic_spec;
        ];
      let expected = snapshot Models.default_spec nocone in
      let lanes = 20_000 in
      let mismatches = ref 0 in
      List.iter
        (fun site ->
        match plan.Program.cone_lanes ~site with
        | None -> ()
        | Some run ->
            let out = Array.make lanes Program.Cone_masked in
            run (fun lane -> Ftb_util.Bits.flip ~bit:(lane mod 64)) out;
            Array.iteri
              (fun lane o ->
                if byte_of_outcome o <> Bytes.get expected ((site * 64) + (lane mod 64)) then
                  incr mismatches)
              out)
        [ 0; sites / 2; sites - 1 ];
      Alcotest.(check int) (Printf.sprintf "%s: %d-lane batches (chunked)" name lanes) 0 !mismatches)
    (Lazy.force fixtures)

let test_raising_batch_contained () =
  (* A lane batch that raises hands its site to the prefix-snapshot tier:
     same bytes as the cone-free program, not a site full of exception
     crashes. The corruption of lane 5 throws on every other site, so the
     replay scratch must also come back clean for the sites after it. *)
  List.iter
    (fun (name, fast, _) ->
      let raising =
        with_plan fast (fun plan ->
            {
              plan with
              Program.cone_lanes =
                (fun ~site ->
                  Option.map
                    (fun run corrupt out ->
                      run
                        (fun lane v -> if lane = 5 && site mod 2 = 0 then failwith "boom" else corrupt lane v)
                        out)
                    (plan.Program.cone_lanes ~site));
            })
      in
      let expected = Executor.ground_truth_model ~domains:1 Models.default_spec (cone_free fast) in
      List.iter
        (fun domains ->
          let got = Executor.ground_truth_model ~domains Models.default_spec raising in
          Alcotest.(check bool)
            (Printf.sprintf "%s: raising batches fall back (%d domain(s))" name domains)
            true
            (Bytes.equal expected.Ground_truth.outcomes got.Ground_truth.outcomes))
        [ 1; 2 ])
    (Lazy.force fixtures)

(* Thresholds for the paper-size ir.gemm (1,024 sites, 6,144 dataflow
   events, so 6 per site; cones of at most 4 events). Measured: a 64-lane
   site replay allocates 73 words once this domain's scratch fits the
   plan (the caller owns the outcome array), and the plan retains 40.3
   words per site, about 6.7 per event. The bounds leave headroom without
   admitting an allocation that grows with the program (one per-site
   [Array.make events] alone is 6,145 words) or a record per event. *)
let replay_words_bound = 512
let plan_words_per_site_bound = 60

let test_replay_memory () =
  let ir =
    match Ftb_kernels.Suite.find_ir "ir.gemm" with
    | Some ir -> Pipeline.optimize ir
    | None -> Alcotest.fail "ir.gemm is not in the suite"
  in
  let plan = Ftb_ir.Cone.plan ir in
  let per_site =
    float_of_int (Obj.reachable_words (Obj.repr plan)) /. float_of_int plan.Program.cone_sites
  in
  Alcotest.(check bool)
    (Printf.sprintf "plan retains %.1f words per site (bound %d)" per_site
       plan_words_per_site_bound)
    true
    (per_site <= float_of_int plan_words_per_site_bound);
  let out = Array.make 64 Program.Cone_masked in
  let allocated site =
    match plan.Program.cone_lanes ~site with
    | None -> Alcotest.failf "ir.gemm site %d declined" site
    | Some run ->
        let corrupt lane = Ftb_util.Bits.flip ~bit:lane in
        run corrupt out;
        (* Now this domain's scratch fits the plan; measure a second call. *)
        let minor0, promoted0, major0 = Gc.counters () in
        run corrupt out;
        let minor1, promoted1, major1 = Gc.counters () in
        minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)
  in
  (* A traced scan allocates its returned pairs and a few words more. *)
  let traced site =
    match plan.Program.cone_trace ~site with
    | None -> Alcotest.failf "ir.gemm site %d declined by the scan" site
    | Some run ->
        let corrupt = Ftb_util.Bits.flip ~bit:40 in
        ignore (run corrupt);
        let minor0, promoted0, major0 = Gc.counters () in
        let _, (sites, _) = run corrupt in
        let minor1, promoted1, major1 = Gc.counters () in
        (Array.length sites, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
  in
  List.iter
    (fun site ->
      let words = allocated site in
      Alcotest.(check bool)
        (Printf.sprintf "site %d replay allocates %.0f words (bound %d)" site words
           replay_words_bound)
        true
        (words <= float_of_int replay_words_bound);
      let pairs, words = traced site in
      Alcotest.(check bool)
        (Printf.sprintf "site %d scan allocates %.0f words for %d pairs" site words pairs)
        true
        (words <= float_of_int ((2 * pairs) + 16)))
    [ 0; plan.Program.cone_sites / 2; plan.Program.cone_sites - 1 ]

let test_one_plan_retained () =
  (* Forcing another program's plan drops the first one's: forcing the
     first again rebuilds it (a fresh plan), and then it is cached. *)
  let force ir =
    match (Pipeline.to_program ir).Program.cone with
    | Some force -> force
    | None -> Alcotest.fail "no cone capability"
  in
  let a = force (Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3) in
  let b = force (Programs.dot ~n:8 ~seed:11 ~tolerance:1e-9) in
  let a1 = a () in
  Alcotest.(check bool) "cached while no other plan is forced" true (a () == a1);
  ignore (b ());
  let a2 = a () in
  Alcotest.(check bool) "rebuilt after another program's plan" true (a2 != a1);
  Alcotest.(check bool) "then cached again" true (a () == a2)

let test_cone_flag_changes_nothing () =
  (* Dropping the cone capability changes neither the bytes nor anything
     a cache or checkpoint keys on: the golden fingerprint and the compose
     plan's section keys. The benchmarks time their cone-free references
     on such a golden and share stores and checkpoints with the normal
     one, so they rely on this. *)
  let module Checkpoint = Ftb_campaign.Checkpoint in
  let module Section = Ftb_compose.Section in
  List.iter2
    (fun (_, build) (name, fast, _) ->
      let nocone = cone_free fast in
      let with_cone = Executor.ground_truth_model ~domains:1 Models.default_spec fast in
      let without = Executor.ground_truth_model ~domains:1 Models.default_spec nocone in
      Alcotest.(check bool) (name ^ ": cone-free bytes = cone bytes") true
        (Bytes.equal with_cone.Ground_truth.outcomes without.Ground_truth.outcomes);
      Alcotest.(check string) (name ^ ": same golden fingerprint")
        (Checkpoint.fingerprint_of_golden fast)
        (Checkpoint.fingerprint_of_golden nocone);
      let keys golden =
        match
          Section.sectionize ~ir:(build ()) ~golden ~model:Models.default_spec
            ~fuel:(Some 10_000_000)
        with
        | None -> Alcotest.failf "%s: did not sectionize" name
        | Some plan ->
            plan.Section.golden_fp
            :: Array.to_list (Array.map (fun s -> s.Section.key) plan.Section.sections)
      in
      Alcotest.(check (list string)) (name ^ ": same compose keys") (keys fast) (keys nocone))
    kernels (Lazy.force fixtures)

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
     it must accept (not fall back on) every site — otherwise the fast
     path is partly dead code and the perf claim is vacuous. *)
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
              if name = "ir.normalize" then
                Alcotest.(check bool)
                  (Printf.sprintf "%s: cone declines the branch-feeding sites (%d/%d)" name
                     !accepted plan.Program.cone_sites)
                  true
                  (!accepted > 0 && !accepted < plan.Program.cone_sites)
              else
                Alcotest.(check int)
                  (name ^ ": cone accepts every site of a branch-free kernel")
                  plan.Program.cone_sites !accepted))
    (Lazy.force fixtures)

(* ------------------------------------------------------------------ *)
(* Traced one-lane scans: propagation samples on the cone               *)

module Sample_run = Ftb_inject.Sample_run
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault

(* A spread of cases per site: the first, middle and last lane of the
   model's width and one that moves with the site. *)
let sample_cases spec golden =
  let width = Models.spec_width spec in
  List.concat_map
    (fun site ->
      List.sort_uniq compare [ 0; width / 2; width - 1; (site * 7) mod width ]
      |> List.map (fun lane -> (site * width) + lane))
    (List.init (Golden.sites golden) Fun.id)
  |> Array.of_list

let samples_on ~domains ?fuel spec golden cases =
  if domains = 1 then Array.map (Sample_run.run_case_model ?fuel spec golden) cases
  else begin
    let pool = Ftb_inject.Parallel.Pool.create ~domains in
    Fun.protect
      ~finally:(fun () -> Ftb_inject.Parallel.Pool.shutdown pool)
      (fun () ->
        let out = Array.make (Array.length cases) None in
        Ftb_inject.Parallel.Pool.run pool ~chunk:3 ~total:(Array.length cases) (fun lo hi ->
            for i = lo to hi - 1 do
              out.(i) <- Some (Sample_run.run_case_model ?fuel spec golden cases.(i))
            done);
        Array.map Option.get out)
  end

let test_cone_trace_samples () =
  (* Samples through the cone tier equal the traced samples of the
     cone-free program (the traced machine, zeros dropped), bit for bit:
     outcome, crash reason, injected error and every (site, deviation)
     pair — per model, at fuel on either side of the golden step count
     and without fuel, on one domain and on two. *)
  List.iter
    (fun (name, fast, _) ->
      let nocone = cone_free fast in
      let steps = Golden.sites fast in
      List.iter
        (fun spec ->
          let cases = sample_cases spec fast in
          List.iter
            (fun fuel ->
              let expected = Array.map (Sample_run.run_case_model ?fuel spec nocone) cases in
              List.iter
                (fun domains ->
                  let got = samples_on ~domains ?fuel spec fast cases in
                  let bad = ref 0 in
                  Array.iteri
                    (fun i s -> if not (Helpers.sample_bits_equal expected.(i) s) then incr bad)
                    got;
                  Alcotest.(check int)
                    (Printf.sprintf "%s under %s, fuel %s, %d domain(s): %d samples = traced"
                       name (Models.spec_name spec)
                       (match fuel with
                       | None -> "none"
                       | Some f -> Printf.sprintf "golden steps %+d" (f - steps))
                       domains (Array.length cases))
                    0 !bad)
                [ 1; 2 ])
            [ None; Some steps; Some (steps - 1) ])
        (discrete_specs @ [ stochastic_spec ]))
    (Lazy.force fixtures)

let pairs_of (prop : Runner.propagation) =
  let l = ref [] in
  Array.iteri
    (fun k d -> if d <> 0. then l := (prop.Runner.start + k, Int64.bits_of_float d) :: !l)
    prop.Runner.deviations;
  List.rev !l

let test_cone_trace_pairs () =
  (* The scan's outcome and pairs against a traced run of the cone-free
     program with the same corruption, on every covered site, for SDC
     and crash cases too (whose pairs a sample drops): the pairs stop at
     the crashing guard exactly where the trace does. *)
  List.iter
    (fun (name, fast, _) ->
      let plan = plan_of name fast in
      let nocone = cone_free fast in
      let checked = ref 0 and bad = ref [] in
      for site = 0 to Golden.sites fast - 1 do
        match plan.Program.cone_trace ~site with
        | None -> ()
        | Some run ->
            List.iter
              (fun corrupt ->
                let outcome, (sites, devs) = run corrupt in
                let prop =
                  Runner.run_propagation_custom nocone ~fault:(Fault.make ~site ~bit:0) ~corrupt
                in
                let r = prop.Runner.result in
                let same_outcome =
                  match (outcome, r.Runner.outcome) with
                  | Program.Cone_masked, Runner.Masked | Program.Cone_sdc, Runner.Sdc -> true
                  | Program.Cone_crash reason, Runner.Crash -> r.Runner.crash_reason = Some reason
                  | _ -> false
                in
                let got =
                  Array.to_list (Array.mapi (fun i j -> (j, Int64.bits_of_float devs.(i))) sites)
                in
                incr checked;
                if not (same_outcome && got = pairs_of prop) then bad := site :: !bad)
              (List.map (fun bit -> Ftb_util.Bits.flip ~bit) [ 0; 30; 51; 52; 55; 61; 62; 63 ]
              @ [ (fun _ -> Float.nan); (fun _ -> Float.infinity); (fun v -> -.v); (fun _ -> 0.) ])
      done;
      Alcotest.(check bool) (name ^ ": scans cover sites") true (!checked > 0);
      Alcotest.(check (list int))
        (Printf.sprintf "%s: %d scans = traced runs (sites that differ)" name !checked)
        [] (List.rev !bad))
    (Lazy.force fixtures)

let test_cone_trace_gate () =
  (* The scan is offered exactly where the lane replay is (ir.normalize's
     branch-feeding sites take the traced machine), and Sample_run takes
     it for every covered case under fuel of at least the golden steps,
     for none below. *)
  List.iter
    (fun (name, fast, _) ->
      let plan = plan_of name fast in
      let sites = Golden.sites fast in
      let declined = ref 0 in
      for site = 0 to sites - 1 do
        let lanes = plan.Program.cone_lanes ~site <> None in
        let trace = plan.Program.cone_trace ~site <> None in
        if lanes <> trace then Alcotest.failf "%s: site %d gated differently" name site;
        if not trace then incr declined
      done;
      if name = "ir.normalize" then
        Alcotest.(check bool) (name ^ ": branch-feeding sites declined") true
          (!declined > 0 && !declined < sites)
      else Alcotest.(check int) (name ^ ": no site declined") 0 !declined;
      let scans = Atomic.make 0 in
      let counted =
        with_plan fast (fun plan ->
            {
              plan with
              Program.cone_trace =
                (fun ~site ->
                  Option.map
                    (fun run corrupt ->
                      Atomic.incr scans;
                      run corrupt)
                    (plan.Program.cone_trace ~site));
            })
      in
      let cases = sample_cases Models.default_spec fast in
      let covered =
        Array.fold_left
          (fun n case -> if plan.Program.cone_trace ~site:(case / 64) <> None then n + 1 else n)
          0 cases
      in
      List.iter
        (fun (fuel, expect) ->
          Atomic.set scans 0;
          Array.iter (fun case -> ignore (Sample_run.run_case_model ?fuel Models.default_spec counted case)) cases;
          Alcotest.(check int)
            (Printf.sprintf "%s: cases scanned on the cone at fuel %s" name
               (match fuel with None -> "none" | Some f -> string_of_int f))
            expect (Atomic.get scans))
        [ (None, covered); (Some sites, covered); (Some (sites - 1), 0) ])
    (Lazy.force fixtures)

let test_cone_trace_adaptive_boundaries () =
  (* Whole adaptive campaigns, on every IR fixture under every discrete
     model: the boundary bytes, support, rounds and samples with the cone
     tier equal those on the traced machine alone. *)
  let config = { Ftb_core.Adaptive.default_config with round_fraction = 0.02; max_rounds = 40 } in
  List.iter
    (fun (name, fast, _) ->
      let nocone = cone_free fast in
      List.iter
        (fun spec ->
          let run g =
            Ftb_core.Adaptive.run_model ~config ~spec (Ftb_util.Rng.create ~seed:31) g
          in
          let a = run fast and b = run nocone in
          let bits (r : Ftb_core.Adaptive.result) =
            Array.map Int64.bits_of_float r.Ftb_core.Adaptive.boundary.Ftb_core.Boundary.thresholds
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s: adaptive result with the cone = traced" name
               (Models.spec_name spec))
            true
            (bits a = bits b
            && a.Ftb_core.Adaptive.boundary.Ftb_core.Boundary.support
               = b.Ftb_core.Adaptive.boundary.Ftb_core.Boundary.support
            && a.Ftb_core.Adaptive.rounds = b.Ftb_core.Adaptive.rounds
            && Array.length a.Ftb_core.Adaptive.samples = Array.length b.Ftb_core.Adaptive.samples
            && Array.for_all2 Helpers.sample_bits_equal a.Ftb_core.Adaptive.samples
                 b.Ftb_core.Adaptive.samples))
        discrete_specs)
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
    Alcotest.test_case "fuel at the golden steps takes the cone" `Quick
      test_fuel_gate_takes_cone;
    Alcotest.test_case "lane widths: batches = snapshot bytes" `Quick test_lane_widths;
    Alcotest.test_case "raising batch falls back per site" `Quick
      test_raising_batch_contained;
    Alcotest.test_case "replay allocates with the cone" `Quick test_replay_memory;
    Alcotest.test_case "one cone plan retained" `Quick test_one_plan_retained;
    Alcotest.test_case "cone trace: samples = traced samples" `Quick test_cone_trace_samples;
    Alcotest.test_case "cone trace: pairs = traced deviations" `Quick test_cone_trace_pairs;
    Alcotest.test_case "cone trace: gate" `Quick test_cone_trace_gate;
    Alcotest.test_case "cone trace: adaptive boundaries = traced" `Quick
      test_cone_trace_adaptive_boundaries;
  ]
