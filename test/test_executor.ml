(* The campaign executor: cone replay and prefix-snapshot batching must be
   byte-identical to full per-case re-execution, for resumable (IR) and
   non-resumable (closure) programs alike, under every fault model and any
   fuel budget. *)

module Golden = Ftb_trace.Golden
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Parallel = Ftb_inject.Parallel

let ir_golden =
  lazy
    (Golden.run
       (Ftb_ir.Ir.to_program (Ftb_ir.Programs.stencil3 ~n:8 ~sweeps:2 ~seed:9 ~tolerance:1e-6)))

let closure_golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

(* Every test below runs under each of these fault models: the executor
   has one path, so bit-flip-64 gets no coverage the others lack. *)
let model_specs =
  [
    { Models.model = Models.Bit_flip_64; seed = 0 };
    { Models.model = Models.Bit_flip_32; seed = 0 };
    { Models.model = Models.Adjacent_burst_2; seed = 0 };
    { Models.model = Models.Random_value { lo = -100.; hi = 100. }; seed = 11 };
  ]

(* The per-case reference: one contained full run per case, no batching,
   no pool. *)
let serial_bytes_model ?fuel spec golden =
  let total = Models.total_cases spec ~sites:(Golden.sites golden) in
  let buf = Bytes.create total in
  for case = 0 to total - 1 do
    Bytes.set buf case (Ground_truth.case_byte_model ?fuel spec golden case)
  done;
  buf

let check_models ?fuel ?domains what golden =
  List.iter
    (fun spec ->
      let label = Printf.sprintf "%s under %s" what (Models.spec_name spec) in
      let expected = serial_bytes_model ?fuel spec golden in
      let gt = Executor.ground_truth_model ?fuel ?domains spec golden in
      Alcotest.(check int)
        (label ^ ": case-space size")
        (Models.total_cases spec ~sites:(Golden.sites golden))
        (Ground_truth.cases gt);
      Alcotest.(check bool)
        (label ^ ": batched bytes = per-case bytes")
        true
        (Bytes.equal expected gt.Ground_truth.outcomes))
    model_specs

let test_model_batched_matches_serial () =
  check_models ~domains:1 "ir program" (Lazy.force ir_golden)

let test_closure_fallback () =
  (* Closure kernels have no resumable capability; same bytes, via the
     per-case fallback. *)
  let golden = Lazy.force closure_golden in
  Alcotest.(check bool) "fixture is not resumable" true
    (golden.Golden.program.Ftb_trace.Program.resumable = None);
  check_models ~domains:1 "closure program" golden

let test_fuel_regimes () =
  let golden = Lazy.force ir_golden in
  let sites = Golden.sites golden in
  (* Budgets that exhaust inside the prefix, exactly at a site, and never:
     the batched path must reproduce the serial fuel-crash bytes in all
     three regimes. *)
  List.iter
    (fun fuel -> check_models ~fuel ~domains:1 (Printf.sprintf "fuel %d" fuel) golden)
    [ 1; 2; sites / 2; sites; sites + 1; 10 * sites ]

let test_ground_truth_fuel_identity () =
  let golden = Lazy.force ir_golden in
  check_models ~fuel:(Golden.sites golden / 2) ~domains:4 "pooled" golden

let check_ragged_bounds ?fuel golden =
  List.iter
    (fun spec ->
      let width = Models.spec_width spec in
      let total = Models.total_cases spec ~sites:(Golden.sites golden) in
      let expected = serial_bytes_model ?fuel spec golden in
      List.iter
        (fun (lo, hi) ->
          let lo = min lo total and hi = min hi total in
          if lo <= hi then begin
            let buf = Bytes.make (hi - lo) '\255' in
            Executor.range_into_model ?fuel spec golden ~lo ~hi buf ~off:0;
            Alcotest.(check bool)
              (Printf.sprintf "%s: range [%d, %d) = serial slice" (Models.spec_name spec) lo
                 hi)
              true
              (Bytes.equal (Bytes.sub expected lo (hi - lo)) buf)
          end)
        [
          (0, total);
          (0, 0);
          (1, width - 1);  (* inside one site *)
          (width - 1, width + 1);  (* straddles a site boundary *)
          (1, total - 1);
          (width, 3 * width);  (* whole sites *)
          (width / 2, (width / 2) + (2 * width));
          (width + 5, (3 * width) + 7);
        ])
    model_specs

let test_model_range_into_ragged_bounds () = check_ragged_bounds (Lazy.force ir_golden)
let test_closure_range_into_ragged_bounds () = check_ragged_bounds (Lazy.force closure_golden)

let test_model_fuel_identity () =
  (* Shard ranges under a budget: per-case edges and batched interiors
     must agree on where the watchdog fires. *)
  let golden = Lazy.force ir_golden in
  check_ragged_bounds ~fuel:(Golden.sites golden / 2) golden

let test_ground_truth_pooled_identity () =
  let golden = Lazy.force ir_golden in
  List.iter
    (fun spec ->
      let expected = serial_bytes_model spec golden in
      List.iter
        (fun (what, gt) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s under %s = serial engine" what (Models.spec_name spec))
            true
            (Bytes.equal expected gt.Ground_truth.outcomes))
        [
          ("serial", Executor.ground_truth_model ~domains:1 spec golden);
          ("pooled", Executor.ground_truth_model ~domains:4 spec golden);
          ( "explicit pool",
            Executor.ground_truth_model ~pool:(Parallel.Pool.global ~domains:3 ()) spec golden
          );
        ])
    model_specs

let test_default_model_is_the_oracle () =
  (* Bit-flip-64 has no path of its own: the generic executor under the
     default spec must reproduce the serial per-case oracle byte for
     byte. *)
  let golden = Lazy.force ir_golden in
  let oracle = Ground_truth.run golden in
  let gt = Executor.ground_truth_model ~domains:1 Models.default_spec golden in
  Alcotest.(check bool) "default model = Ground_truth.run" true
    (Bytes.equal oracle.Ground_truth.outcomes gt.Ground_truth.outcomes)

let test_argument_validation () =
  let golden = Lazy.force ir_golden in
  List.iter
    (fun spec ->
      let total = Models.total_cases spec ~sites:(Golden.sites golden) in
      let rejects what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | () -> Alcotest.fail (Printf.sprintf "%s: %s accepted" (Models.spec_name spec) what)
      in
      let buf = Bytes.create total in
      let range ~lo ~hi buf ~off = Executor.range_into_model spec golden ~lo ~hi buf ~off in
      rejects "negative lo" (fun () -> range ~lo:(-1) ~hi:1 buf ~off:0);
      rejects "hi < lo" (fun () -> range ~lo:2 ~hi:1 buf ~off:0);
      rejects "out-of-range hi" (fun () -> range ~lo:0 ~hi:(total + 1) buf ~off:0);
      rejects "short buffer" (fun () -> range ~lo:0 ~hi:total (Bytes.create (total - 1)) ~off:0);
      rejects "negative offset" (fun () -> range ~lo:0 ~hi:1 buf ~off:(-1));
      rejects "zero domains" (fun () ->
          ignore (Executor.ground_truth_model ~domains:0 spec golden)))
    model_specs

let test_model_stochastic_replay_identical () =
  (* Two independent executions of the stochastic model on different
     domain counts must produce identical bytes: the per-case RNG
     derivation leaves nothing to scheduling. *)
  let golden = Lazy.force ir_golden in
  let spec = { Models.model = Models.Random_value { lo = -1.; hi = 1. }; seed = 99 } in
  let a = Executor.ground_truth_model ~domains:1 spec golden in
  let b = Executor.ground_truth_model ~domains:4 spec golden in
  Alcotest.(check bool) "serial = pooled" true
    (Bytes.equal a.Ground_truth.outcomes b.Ground_truth.outcomes);
  (* And a different seed must actually change the injected values
     (outcome bytes may coincide — near-everything is SDC here). *)
  let differs =
    Array.exists
      (fun case ->
        Models.case_corrupt spec ~case 0.
        <> Models.case_corrupt { spec with Models.seed = 100 } ~case 0.)
      (Array.init 64 Fun.id)
  in
  Alcotest.(check bool) "seed changes the drawn values" true differs

(* Property: for random small IR kernels, fault models and fuel budgets,
   the executor's bytes equal the per-case reference on every case. *)
let prop_batched_identity =
  let gen =
    QCheck.make
      ~print:(fun ((k, n, seed), (fuel, m)) ->
        Printf.sprintf "kernel %d, n %d, seed %d, fuel %d, model %d" k n seed fuel m)
      QCheck.Gen.(
        pair
          (triple (int_bound 4) (int_range 2 6) (int_range 0 1000))
          (pair (int_range 0 64) (int_bound (List.length model_specs - 1))))
  in
  QCheck.Test.make ~name:"batched executor = serial engine (random kernels)" ~count:25 gen
    (fun ((kernel, n, seed), (fuel, model)) ->
      let ir =
        match kernel with
        | 0 -> Ftb_ir.Programs.dot ~n ~seed ~tolerance:1e-9
        | 1 -> Ftb_ir.Programs.saxpy ~n ~seed ~tolerance:1e-9
        | 2 -> Ftb_ir.Programs.stencil3 ~n:(n + 2) ~sweeps:2 ~seed ~tolerance:1e-9
        | 3 -> Ftb_ir.Programs.matvec ~n ~seed ~tolerance:1e-9
        | _ -> Ftb_ir.Programs.normalize ~n ~seed ~tolerance:1e-9
      in
      let golden = Golden.run (Ftb_ir.Ir.to_program ir) in
      let fuel = if fuel = 0 then None else Some fuel in
      let spec = List.nth model_specs model in
      let reference = serial_bytes_model ?fuel spec golden in
      let batched = Executor.ground_truth_model ?fuel ~domains:1 spec golden in
      Bytes.equal reference batched.Ground_truth.outcomes)

let suite =
  [
    Alcotest.test_case "closure fallback = serial bytes" `Quick test_closure_fallback;
    Alcotest.test_case "fuel regimes = serial bytes" `Quick test_fuel_regimes;
    Alcotest.test_case "range_into handles ragged bounds (closure program)" `Quick
      test_closure_range_into_ragged_bounds;
    Alcotest.test_case "ground_truth: batched x pooled identity" `Quick
      test_ground_truth_pooled_identity;
    Alcotest.test_case "ground_truth: fuel identity" `Quick test_ground_truth_fuel_identity;
    Alcotest.test_case "argument validation" `Quick test_argument_validation;
    Alcotest.test_case "per-model batched = per-case serial" `Quick
      test_model_batched_matches_serial;
    Alcotest.test_case "default model dispatches to the generic path (= oracle)" `Quick
      test_default_model_is_the_oracle;
    Alcotest.test_case "model range_into handles ragged bounds" `Quick
      test_model_range_into_ragged_bounds;
    Alcotest.test_case "model fuel identity" `Quick test_model_fuel_identity;
    Alcotest.test_case "stochastic replay is scheduling-independent" `Quick
      test_model_stochastic_replay_identical;
    QCheck_alcotest.to_alcotest prop_batched_identity;
  ]
