(* The flat IR machine: equivalence with the structured interpreter and
   the prefix-snapshot capability (pause, deep-copy, replay). *)

module Ctx = Ftb_trace.Ctx
module Fault = Ftb_trace.Fault
module Program = Ftb_trace.Program
module Ir = Ftb_ir.Ir
module Machine = Ftb_ir.Machine
module Programs = Ftb_ir.Programs

let builders =
  [
    ("dot", fun seed -> Programs.dot ~n:6 ~seed ~tolerance:1e-9);
    ("saxpy", fun seed -> Programs.saxpy ~n:6 ~seed ~tolerance:1e-9);
    ("stencil3", fun seed -> Programs.stencil3 ~n:8 ~sweeps:3 ~seed ~tolerance:1e-9);
    ("matvec", fun seed -> Programs.matvec ~n:5 ~seed ~tolerance:1e-9);
    ("normalize", fun seed -> Programs.normalize ~n:6 ~seed ~tolerance:1e-9);
  ]

let exact = Alcotest.(array (float 0.))

let test_exec_matches_interpreter () =
  List.iter
    (fun (name, build) ->
      let p = build 7 in
      let machine = Ir.to_machine p in
      Alcotest.check exact
        (name ^ ": machine output = structured interpreter")
        (Ir.interpret_plain p)
        (Machine.exec machine (Ctx.counting ())))
    builders

let test_ir_programs_are_resumable () =
  List.iter
    (fun (name, build) ->
      let program = Ir.to_program (build 3) in
      Alcotest.(check bool)
        (name ^ ": to_program carries the resumable capability")
        true
        (program.Program.resumable <> None))
    builders

let dynamic_length machine =
  let ctx = Ctx.counting () in
  ignore (Machine.exec machine ctx);
  Ctx.length ctx

(* Pausing at every possible site and replaying the suffix must reproduce
   the uninterrupted run exactly — the snapshot round-trips the complete
   interpreter state. *)
let test_prefix_resume_roundtrip () =
  List.iter
    (fun (name, build) ->
      let machine = Ir.to_machine (build 21) in
      let full = Machine.exec machine (Ctx.counting ()) in
      let sites = dynamic_length machine in
      for stop_at = 0 to sites - 1 do
        match Machine.prefix machine (Ctx.counting ()) ~stop_at with
        | `Done _ -> Alcotest.fail (Printf.sprintf "%s: done before site %d" name stop_at)
        | `Paused snap ->
            Alcotest.check exact
              (Printf.sprintf "%s: resume at %d = full run" name stop_at)
              full
              (Machine.resume machine snap (Ctx.counting ()))
      done)
    builders

let test_prefix_past_end_completes () =
  let machine = Ir.to_machine (Programs.dot ~n:4 ~seed:2 ~tolerance:1e-9) in
  let sites = dynamic_length machine in
  match Machine.prefix machine (Ctx.counting ()) ~stop_at:sites with
  | `Done output ->
      Alcotest.check exact "done output = exec" (Machine.exec machine (Ctx.counting ())) output
  | `Paused _ -> Alcotest.fail "paused past the last dynamic instruction"

let test_snapshot_supports_many_replays () =
  let machine = Ir.to_machine (Programs.stencil3 ~n:8 ~sweeps:2 ~seed:5 ~tolerance:1e-9) in
  let stop_at = dynamic_length machine / 2 in
  match Machine.prefix machine (Ctx.counting ()) ~stop_at with
  | `Done _ -> Alcotest.fail "program too short for the test"
  | `Paused snap ->
      let first = Machine.resume machine snap (Ctx.counting ()) in
      (* A hooked replay corrupts state reachable from the snapshot; the
         snapshot itself must stay pristine for the next replay. *)
      let corrupting = Ctx.hooked (fun ~index:_ ~tag:_ v -> v +. 1.0) in
      ignore (Machine.resume machine snap corrupting);
      let second = Machine.resume machine snap (Ctx.counting ()) in
      Alcotest.check exact "replays from one snapshot are independent" first second

let test_negative_stop_at_rejected () =
  let machine = Ir.to_machine (Programs.dot ~n:3 ~seed:1 ~tolerance:1e-9) in
  match Machine.prefix machine (Ctx.counting ()) ~stop_at:(-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative stop_at accepted"

(* The two engines — tree-walking interpreter and compiled machine — must
   produce bit-identical campaign outcomes; the machine is the one the
   campaigns run, the interpreter is the oracle. *)
let test_engines_campaign_identity () =
  let ir = Programs.normalize ~n:5 ~seed:8 ~tolerance:1e-9 in
  let machine_golden = Ftb_trace.Golden.run (Ir.to_program ir) in
  let interp_golden = Ftb_trace.Golden.run (Ir.to_program_interpreted ir) in
  Alcotest.(check int) "same dynamic length"
    (Ftb_trace.Golden.sites machine_golden)
    (Ftb_trace.Golden.sites interp_golden);
  let module Gt = Ftb_inject.Ground_truth in
  let by_machine = Gt.run machine_golden in
  let by_interp = Gt.run interp_golden in
  Alcotest.(check bool) "campaign bytes identical across engines" true
    (Bytes.equal by_machine.Gt.outcomes by_interp.Gt.outcomes)

(* Ctx-level snapshot semantics: position and fuel carry over exactly. *)

let test_ctx_snapshot_position_and_fuel () =
  let ctx = Ctx.counting ~fuel:5 () in
  ignore (Ctx.record ctx ~tag:0 1.0);
  ignore (Ctx.record ctx ~tag:0 2.0);
  ignore (Ctx.record ctx ~tag:0 3.0);
  let snap = Ctx.snapshot ctx in
  let resumed = Ctx.resume_custom snap ~site:3 ~corrupt:(Ftb_util.Bits.flip ~bit:0) in
  Alcotest.(check int) "resumed position" 3 (Ctx.length resumed);
  Alcotest.(check (option int)) "resumed fuel" (Some 2) (Ctx.remaining_fuel resumed);
  ignore (Ctx.record resumed ~tag:0 4.0);
  ignore (Ctx.record resumed ~tag:0 5.0);
  match Ctx.record resumed ~tag:0 6.0 with
  | _ -> Alcotest.fail "fuel watchdog did not fire at the inherited budget"
  | exception Ctx.Crash { reason = Ctx.Fuel_exhausted; _ } -> ()

let test_ctx_resume_before_snapshot_rejected () =
  let ctx = Ctx.counting () in
  ignore (Ctx.record ctx ~tag:0 1.0);
  ignore (Ctx.record ctx ~tag:0 2.0);
  let snap = Ctx.snapshot ctx in
  match Ctx.resume_custom snap ~site:1 ~corrupt:(Ftb_util.Bits.flip ~bit:0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fault before the snapshot accepted"

let test_ctx_resume_injects_at_site () =
  let ctx = Ctx.counting () in
  ignore (Ctx.record ctx ~tag:0 1.0);
  let resumed = Ctx.resume_custom (Ctx.snapshot ctx) ~site:2 ~corrupt:(Ftb_util.Bits.flip ~bit:63) in
  Alcotest.(check (float 0.)) "site 1 untouched" 5.0 (Ctx.record resumed ~tag:0 5.0);
  let corrupted = Ctx.record resumed ~tag:0 8.0 in
  Alcotest.(check (float 0.)) "site 2 sign-flipped" (-8.0) corrupted;
  Alcotest.(check (float 0.)) "site 3 untouched" 9.0 (Ctx.record resumed ~tag:0 9.0);
  match Ctx.injection resumed with
  | Some (original, injected) ->
      Alcotest.(check (float 0.)) "original recorded" 8.0 original;
      Alcotest.(check (float 0.)) "injected recorded" (-8.0) injected
  | None -> Alcotest.fail "injection not recorded"

let suite =
  [
    Alcotest.test_case "exec matches interpreter" `Quick test_exec_matches_interpreter;
    Alcotest.test_case "IR programs are resumable" `Quick test_ir_programs_are_resumable;
    Alcotest.test_case "prefix/resume round-trip at every site" `Quick
      test_prefix_resume_roundtrip;
    Alcotest.test_case "prefix past end completes" `Quick test_prefix_past_end_completes;
    Alcotest.test_case "one snapshot, many replays" `Quick
      test_snapshot_supports_many_replays;
    Alcotest.test_case "negative stop_at rejected" `Quick test_negative_stop_at_rejected;
    Alcotest.test_case "interpreter and machine campaigns identical" `Quick
      test_engines_campaign_identity;
    Alcotest.test_case "ctx snapshot carries position and fuel" `Quick
      test_ctx_snapshot_position_and_fuel;
    Alcotest.test_case "ctx resume before snapshot rejected" `Quick
      test_ctx_resume_before_snapshot_rejected;
    Alcotest.test_case "ctx resume injects at its site" `Quick
      test_ctx_resume_injects_at_site;
  ]
