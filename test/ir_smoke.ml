(* IR pipeline smoke test (dune alias @ir-smoke).

   End-to-end gate for the optimizing pipeline + dependent-cone replay:
   every IR kernel port at a tiny configuration is lowered twice — through
   [Pipeline.to_program] (optimized, compiled, cone plan attached) and
   through [Ir.to_program_interpreted] (the tree-walking reference) — and
   an exhaustive campaign per fault model must produce bit-identical
   outcome bytes, unfueled, under the daemon's default fuel budget
   ([Job.default_spec]) and at fuel = the golden step count (the least
   budget the cone tier runs under). Also asserts the cone fast path is
   actually taken — the plan accepts every site of these kernels and of
   the paper-size kernels the exhaustive benchmark catalogue runs — so a
   silent fallback regression cannot pass the gate, and that the
   optimizer shrank at least one kernel. Small configs: the whole smoke
   is a few seconds. *)

module Ir = Ftb_ir.Ir
module Passes = Ftb_ir.Passes
module Pipeline = Ftb_ir.Pipeline
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Ir_kernels = Ftb_kernels.Ir_kernels

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

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
  ]

let specs =
  List.map (fun model -> { Models.model; seed = 0 }) Models.all_discrete
  @ [ { Models.model = Models.Random_value { lo = -4.; hi = 4. }; seed = 9 } ]

let reference_bytes ?fuel spec golden =
  let total = Models.total_cases spec ~sites:(Golden.sites golden) in
  String.init total (fun case -> Ground_truth.case_byte_model ?fuel spec golden case)

let daemon_fuel =
  match (Ftb_service.Job.default_spec ~bench:"ir.cg").Ftb_service.Job.fuel with
  | Some fuel -> fuel
  | None -> failwith "the daemon's default spec has no fuel budget"

(* The cone plan must accept every site: these kernels have no float
   branch, so a declined site is a regression of the analysis. *)
let check_accepts_all name (g : Golden.t) =
  match g.Golden.program.Program.cone with
  | None -> check (name ^ ": cone capability attached") false
  | Some force -> (
      match force () with
      | None -> check (name ^ ": cone plan builds") false
      | Some plan ->
          let accepted = ref 0 in
          for site = 0 to plan.Program.cone_sites - 1 do
            if plan.Program.cone_case ~site <> None then incr accepted
          done;
          check
            (Printf.sprintf "%s: cone accepts %d/%d sites" name !accepted
               plan.Program.cone_sites)
            (!accepted = plan.Program.cone_sites && !accepted = Golden.sites g))

let () =
  let shrunk = ref false in
  List.iter
    (fun (name, build) ->
      let ir = build () in
      (match Ir.validate ir with
      | Ok () -> check (name ^ ": validates") true
      | Error msgs ->
          check (Printf.sprintf "%s: validates (%s)" name (String.concat "; " msgs)) false);
      let optimized, stats = Pipeline.optimize_with_report ir in
      let before = Passes.op_count ir and after = Passes.op_count optimized in
      if after < before then shrunk := true;
      check
        (Printf.sprintf "%s: pipeline ran %d passes (%d -> %d ops)" name
           (List.length stats) before after)
        (after <= before);
      let fast = Golden.run (Pipeline.to_program ir) in
      let interp = Golden.run (Ir.to_program_interpreted ir) in
      check
        (Printf.sprintf "%s: same site space (%d)" name (Golden.sites fast))
        (Golden.sites fast = Golden.sites interp);
      check_accepts_all name fast;
      List.iter
        (fun spec ->
          List.iter
            (fun fuel ->
              let expected = reference_bytes ?fuel spec interp in
              let gt = Executor.ground_truth_model ~domains:2 ?fuel spec fast in
              check
                (Printf.sprintf "%s: %s bytes = interpreted reference (fuel %s)" name
                   (Models.spec_name spec)
                   (match fuel with None -> "none" | Some f -> string_of_int f))
                (String.equal expected (Bytes.to_string gt.Ground_truth.outcomes)))
            [ None; Some daemon_fuel; Some (Golden.sites fast) ])
        specs)
    kernels;
  List.iter
    (fun name -> check_accepts_all name (Golden.run (Ftb_kernels.Suite.find name)))
    [ "ir.cg"; "ir.lu"; "ir.fft"; "ir.gemm"; "ir.stencil3" ];
  check "pipeline shrinks at least one kernel" !shrunk;
  if !failures > 0 then begin
    Printf.printf "ir smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "ir smoke: all checks passed"
