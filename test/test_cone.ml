(* Dependent-cone replay: campaign outcome bytes through the optimized,
   cone-enabled fast path must be bit-identical to the reference — the
   structured tree-walking interpreter run per-case — for every fault
   model, the stochastic random-value model included, under fuel on
   either side of the golden step count, at every lane width, and when a
   lane batch raises; the fallbacks (fuel below the golden step count,
   cone:false) must change nothing. This is the acceptance bar of the
   specializer: same bytes, only faster. Replay must also stay small: a
   site allocates with its cone, not with the program, and one plan is
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
    ("ir.cg", fun () -> Ir_kernels.cg ~grid:3 ~iterations:3 ~tolerance:1e-4);
    ("ir.lu", fun () -> Ir_kernels.lu ~n:6 ~block:3 ~seed:7 ~tolerance:1e-4);
    ("ir.fft", fun () -> Ir_kernels.fft ~n1:4 ~n2:4 ~seed:11 ~tolerance:1.0);
    ("ir.jacobi", fun () -> Ir_kernels.jacobi ~grid:3 ~sweeps:2 ~tolerance:1e-4);
    ("ir.gemm", fun () -> Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3);
    ("ir.matmul", fun () -> Ir_kernels.matmul ~n:4 ~seed:9 ~tolerance:1e-3);
    ("ir.stencil", fun () -> Ir_kernels.stencil ~size:4 ~sweeps:2 ~seed:3 ~tolerance:1e-4);
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
                  (Executor.ground_truth_model ~domains:1 ~fuel ~cone:false spec fast)
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
  let snapshot spec fast =
    (Executor.ground_truth_model ~domains:1 ~cone:false spec fast).Ground_truth.outcomes
  in
  List.iter
    (fun (name, fast, _) ->
      let plan = plan_of name fast in
      let sites = Golden.sites fast in
      List.iter
        (fun spec ->
          let width = Models.spec_width spec in
          let expected = snapshot spec fast in
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
      let expected = snapshot Models.default_spec fast in
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
     same bytes as cone:false, not a site full of exception crashes. The
     corruption of lane 5 throws on every other site, so the replay
     scratch must also come back clean for the sites after it. *)
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
      let expected =
        Executor.ground_truth_model ~domains:1 ~cone:false Models.default_spec fast
      in
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
  List.iter
    (fun site ->
      let words = allocated site in
      Alcotest.(check bool)
        (Printf.sprintf "site %d replay allocates %.0f words (bound %d)" site words
           replay_words_bound)
        true
        (words <= float_of_int replay_words_bound))
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
  ]
