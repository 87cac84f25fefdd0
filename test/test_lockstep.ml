module Lockstep = Ftb_trace.Lockstep
module Runner = Ftb_trace.Runner
module Golden = Ftb_trace.Golden
module Fault = Ftb_trace.Fault

let program = lazy (Helpers.linear_program ~tolerance:0.5 ())
let golden = lazy (Golden.run (Lazy.force program))

let test_matches_runner_exhaustively () =
  (* The lockstep executor must agree with the store-and-diff pipeline on
     every case of the linear program: outcome, injected error, output
     error and deviation stream. *)
  let p = Lazy.force program and g = Lazy.force golden in
  for case = 0 to Golden.cases g - 1 do
    let fault = Fault.of_case case in
    let reference = Runner.run_propagation g fault in
    let result, deviations = Lockstep.deviations p fault in
    let label what = Printf.sprintf "%s at %s" what (Fault.to_string fault) in
    Alcotest.(check bool) (label "outcome") true
      (Runner.outcome_equal reference.Runner.result.Runner.outcome result.Lockstep.outcome);
    Alcotest.(check bool) (label "injected error") true
      (reference.Runner.result.Runner.injected_error = result.Lockstep.injected_error);
    Alcotest.(check bool) (label "output error") true
      (reference.Runner.result.Runner.output_error = result.Lockstep.output_error);
    Alcotest.(check int) (label "coverage")
      (reference.Runner.stop - reference.Runner.start)
      (Array.length deviations);
    Array.iteri
      (fun k d ->
        Alcotest.(check bool) (label "deviation") true (reference.Runner.deviations.(k) = d))
      deviations
  done

let test_divergence_agrees_with_runner () =
  let p = Helpers.branching_program () in
  let g = Golden.run p in
  let fault = Fault.make ~site:0 ~bit:62 in
  let reference = Runner.run_propagation g fault in
  let result, deviations = Lockstep.deviations p fault in
  Alcotest.(check bool) "diverged" true (result.Lockstep.diverged_at <> None);
  Alcotest.(check int) "same truncated coverage"
    (reference.Runner.stop - reference.Runner.start)
    (Array.length deviations)

let test_crash_detected () =
  let p = Helpers.guarded_program () in
  let result = Lockstep.run p (Fault.make ~site:0 ~bit:62) in
  Alcotest.(check bool) "crash" true
    (Runner.outcome_equal result.Lockstep.outcome Runner.Crash);
  Helpers.check_close "output error saturates" infinity result.Lockstep.output_error

let test_fault_out_of_range () =
  match Lockstep.run (Lazy.force program) (Fault.make ~site:1000 ~bit:0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range fault accepted"

let test_compared_counts () =
  (* Fault at site 2 of the 7-site linear program: sites 2..6 compared. *)
  let result = Lockstep.run (Lazy.force program) (Fault.make ~site:2 ~bit:30) in
  Alcotest.(check int) "compared = sites - fault.site" 5 result.Lockstep.compared;
  Alcotest.(check bool) "no divergence" true (result.Lockstep.diverged_at = None)

let test_streaming_consumer_sees_all_deviations () =
  let count = ref 0 and max_dev = ref 0. in
  let _ =
    Lockstep.run
      ~on_deviation:(fun ~site:_ ~deviation ->
        incr count;
        if deviation > !max_dev then max_dev := deviation)
      (Lazy.force program)
      (Fault.make ~site:0 ~bit:63)
  in
  Alcotest.(check int) "one callback per compared site" 7 !count;
  Helpers.check_close "max deviation is the sign-flip error" 2. !max_dev

let test_works_on_real_kernel () =
  (* Cross-check on a kernel with loops and mutable state. *)
  let p =
    Ftb_oracle.Stencil.program
      { Ftb_oracle.Stencil.size = 5; sweeps = 2; seed = 3; tolerance = 1e-4 }
  in
  let g = Golden.run p in
  List.iter
    (fun case ->
      let fault = Fault.of_case case in
      let reference = Runner.run_propagation g fault in
      let result, deviations = Lockstep.deviations p fault in
      Alcotest.(check bool) "same outcome" true
        (Runner.outcome_equal reference.Runner.result.Runner.outcome result.Lockstep.outcome);
      Alcotest.(check int) "same coverage"
        (reference.Runner.stop - reference.Runner.start)
        (Array.length deviations))
    [ 0; 100; 1000; 3000; 4700 ]

let suite =
  [
    Alcotest.test_case "matches Runner exhaustively" `Slow test_matches_runner_exhaustively;
    Alcotest.test_case "divergence agrees with Runner" `Quick
      test_divergence_agrees_with_runner;
    Alcotest.test_case "crash detected" `Quick test_crash_detected;
    Alcotest.test_case "fault out of range" `Quick test_fault_out_of_range;
    Alcotest.test_case "compared counts" `Quick test_compared_counts;
    Alcotest.test_case "streaming consumer" `Quick test_streaming_consumer_sees_all_deviations;
    Alcotest.test_case "works on a real kernel" `Quick test_works_on_real_kernel;
  ]
