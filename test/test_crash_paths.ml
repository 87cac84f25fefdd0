(* Crash-path coverage: the guard instrumentation in the real kernels must
   actually fire under targeted corruption, and crash outcomes must be
   classified consistently across the execution modes. *)

module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault
module Bits = Ftb_util.Bits

let count_crashes golden ~sites_from ~sites_to ~bits =
  let crashes = ref 0 in
  for site = sites_from to sites_to do
    List.iter
      (fun bit ->
        let r = Runner.run_outcome golden (Fault.make ~site ~bit) in
        if r.Runner.outcome = Runner.Crash then incr crashes)
      bits
  done;
  !crashes

let test_cg_guard_can_fire () =
  (* Exponent-range flips on reduction scalars can blow alpha/beta up to
     non-finite values; somewhere in the space the guard must trap. *)
  let program =
    Ftb_oracle.Cg.program { Ftb_oracle.Cg.grid = 4; iterations = 6; tolerance = 1e-4 }
  in
  let golden = Golden.run program in
  let crashes =
    count_crashes golden ~sites_from:0 ~sites_to:(Golden.sites golden - 1) ~bits:[ 62 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "cg crashes somewhere (%d found)" crashes)
    true (crashes > 0)

let test_lu_pivot_guard () =
  (* Zeroing-out a pivot's magnitude via an exponent flip makes the panel
     division produce huge values; bit 62 on a pivot-feeding site must be
     able to crash the factorisation. *)
  let program =
    Ftb_oracle.Lu.program { Ftb_oracle.Lu.n = 8; block = 4; seed = 7; tolerance = 1e-4 }
  in
  let golden = Golden.run program in
  let crashes =
    count_crashes golden ~sites_from:0
      ~sites_to:(Golden.sites golden - 1)
      ~bits:[ 62 ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "lu crashes somewhere (%d found)" crashes)
    true (crashes > 0)

let test_crash_never_counts_as_masked_or_sdc () =
  (* For any case, the three execution modes (outcome, propagation,
     lockstep) must agree on crashes. *)
  let program = Helpers.guarded_program () in
  let golden = Golden.run program in
  for bit = 0 to 63 do
    let fault = Fault.make ~site:0 ~bit in
    let a = (Runner.run_outcome golden fault).Runner.outcome in
    let b = (Runner.run_propagation golden fault).Runner.result.Runner.outcome in
    let c = (Ftb_trace.Lockstep.run program fault).Ftb_trace.Lockstep.outcome in
    Alcotest.(check bool)
      (Printf.sprintf "bit %d: modes agree" bit)
      true
      (Runner.outcome_equal a b && Runner.outcome_equal b c)
  done

let test_nonfinite_output_without_guard_is_crash () =
  (* FFT has no guards; a non-finite value reaching the spectrum must be
     classified Crash via the output check, not SDC. *)
  let program =
    Ftb_oracle.Fft.program { Ftb_oracle.Fft.n1 = 4; n2 = 4; seed = 11; tolerance = 1.0 }
  in
  let golden = Golden.run program in
  (* Find a site whose value has the top exponent bit clear so bit 62
     saturates the exponent. *)
  let site = ref (-1) in
  (try
     for s = 0 to Golden.sites golden - 1 do
       let v = Golden.value golden s in
       if v <> 0. && not (Bits.is_finite (Bits.flip ~bit:62 v)) then begin
         site := s;
         raise Exit
       end
     done
   with Exit -> ());
  Alcotest.(check bool) "found a saturating site" true (!site >= 0);
  let r = Runner.run_outcome golden (Fault.make ~site:!site ~bit:62) in
  Alcotest.(check bool) "classified as crash" true
    (Runner.outcome_equal r.Runner.outcome Runner.Crash)

let test_hooked_ctx_has_no_trace_or_injection () =
  let ctx = Ftb_trace.Ctx.hooked (fun ~index:_ ~tag:_ v -> v *. 2.) in
  Helpers.check_close "hook transforms the value" 4. (Ftb_trace.Ctx.record ctx ~tag:0 2.);
  Alcotest.(check int) "length counted" 1 (Ftb_trace.Ctx.length ctx);
  Alcotest.(check bool) "no injection" true (Ftb_trace.Ctx.injection ctx = None);
  Alcotest.(check bool) "no divergence" true (Ftb_trace.Ctx.diverged_at ctx = None);
  match Ftb_trace.Ctx.trace_values ctx with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "hooked context exposed a trace"

let test_outcome_custom_identity_is_masked () =
  (* A corruption that changes nothing must classify as Masked with zero
     injected error. *)
  let golden = Golden.run (Helpers.linear_program ()) in
  let r = Runner.run_outcome_custom golden ~site:3 ~corrupt:Fun.id in
  Alcotest.(check bool) "masked" true (Runner.outcome_equal r.Runner.outcome Runner.Masked);
  Helpers.check_close "zero injected error" 0. r.Runner.injected_error;
  Helpers.check_close "zero output error" 0. r.Runner.output_error

let suite =
  [
    Alcotest.test_case "cg guard can fire" `Quick test_cg_guard_can_fire;
    Alcotest.test_case "lu pivot guard" `Quick test_lu_pivot_guard;
    Alcotest.test_case "crash modes agree" `Quick test_crash_never_counts_as_masked_or_sdc;
    Alcotest.test_case "non-finite output is crash" `Quick
      test_nonfinite_output_without_guard_is_crash;
    Alcotest.test_case "hooked ctx" `Quick test_hooked_ctx_has_no_trace_or_injection;
    Alcotest.test_case "identity corruption is masked" `Quick
      test_outcome_custom_identity_is_masked;
  ]
