(* The suite's IR programs against the hand-instrumented closure kernels
   they replaced ([Ftb_oracle]): at every configuration the library, the
   bench harness and the examples run, the golden streams must agree site
   for site — count, value bits, static tag, phase and label — and at the
   quick configurations the exhaustive bit-flip-64 outcome bytes must
   agree too. The [ir.*] programs perfbench measures are pinned to their
   site counts and golden/outcome fingerprints. *)

module Golden = Ftb_trace.Golden
module Static = Ftb_trace.Static
module Program = Ftb_trace.Program
module Suite = Ftb_kernels.Suite
module O = Ftb_oracle

let check_stream what (closure : Program.t) (ir : Program.t) =
  Alcotest.(check string) (what ^ ": name") closure.name ir.name;
  Alcotest.(check string) (what ^ ": description") closure.description ir.description;
  Alcotest.(check (float 0.)) (what ^ ": tolerance") closure.tolerance ir.tolerance;
  let gc = Golden.run closure and gi = Golden.run ir in
  Alcotest.(check int) (what ^ ": sites") (Golden.sites gc) (Golden.sites gi);
  for site = 0 to Golden.sites gc - 1 do
    let vc = gc.Golden.values.(site) and vi = gi.Golden.values.(site) in
    if Int64.bits_of_float vc <> Int64.bits_of_float vi then
      Alcotest.failf "%s: site %d value: closure %h, ir %h" what site vc vi;
    let tc = gc.Golden.statics.(site) and ti = gi.Golden.statics.(site) in
    let ic = Static.info closure.statics tc and ii = Static.info ir.statics ti in
    if tc <> ti || ic <> ii then
      Alcotest.failf "%s: site %d static: closure %d (%s / %s), ir %d (%s / %s)" what site tc
        ic.phase ic.label ti ii.phase ii.label
  done

(* Every configuration a caller builds, as (what, closure, IR kernel). *)
let configs =
  let cg grid iterations =
    ( Printf.sprintf "cg %dx%d/%d" grid grid iterations,
      (fun () -> O.Cg.program { O.Cg.grid; iterations; tolerance = 1e-4 }),
      fun () -> Suite.cg ~grid ~iterations ~tolerance:1e-4 )
  in
  let lu n block =
    ( Printf.sprintf "lu %d/%d" n block,
      (fun () -> O.Lu.program { O.Lu.n; block; seed = 7; tolerance = 1e-4 }),
      fun () -> Suite.lu ~n ~block ~seed:7 ~tolerance:1e-4 )
  in
  let fft n1 n2 =
    ( Printf.sprintf "fft %dx%d" n1 n2,
      (fun () -> O.Fft.program { O.Fft.n1; n2; seed = 11; tolerance = 1.0 }),
      fun () -> Suite.fft ~n1 ~n2 ~seed:11 ~tolerance:1.0 )
  in
  let stencil size sweeps =
    ( Printf.sprintf "stencil %d/%d" size sweeps,
      (fun () -> O.Stencil.program { O.Stencil.size; sweeps; seed = 3; tolerance = 1e-4 }),
      fun () -> Suite.stencil ~size ~sweeps ~seed:3 ~tolerance:1e-4 )
  in
  [
    (* bench/main.exe: paper (the suite defaults), --quick, table4 grids
       (quick 3 and 6 at 6 iterations; full 6 and 12 at 12), tolerance
       (sizes 6 and 10, 6 sweeps) and overhead (quick 6/4) stencils. *)
    cg 8 12; cg 4 6; cg 3 6; cg 6 6; cg 6 12; cg 12 12;
    lu 24 6; lu 8 2;
    fft 16 8; fft 8 4;
    stencil 12 8; stencil 6 6; stencil 10 6; stencil 6 4;
    (* The examples. *)
    cg 6 10; cg 4 8; lu 12 3; lu 16 4; stencil 8 4;
    ( "matvec 12/3",
      (fun () ->
        O.Matprod.matvec_program { O.Matprod.n = 12; reps = 3; seed = 5; tolerance = 1e-3 }),
      fun () -> Suite.matvec ~n:12 ~reps:3 ~seed:5 ~tolerance:1e-3 );
    ( "matmul 8",
      (fun () -> O.Matprod.matmul_program { O.Matprod.n = 8; seed = 9; tolerance = 1e-3 }),
      fun () -> Suite.matmul ~n:8 ~seed:9 ~tolerance:1e-3 );
  ]

let test_configs () =
  List.iter
    (fun (what, closure, kernel) -> check_stream what (closure ()) (Suite.program (kernel ())))
    configs

(* The registry entries at their default configurations. *)
let test_suite_defaults () =
  let closures =
    [
      ("cg", O.Cg.program O.Cg.default);
      ("lu", O.Lu.program O.Lu.default);
      ("fft", O.Fft.program O.Fft.default);
      ("jacobi", O.Jacobi.program O.Jacobi.default);
      ("stencil", O.Stencil.program O.Stencil.default);
      ("matvec", O.Matprod.matvec_program O.Matprod.matvec_default);
      ("matmul", O.Matprod.matmul_program O.Matprod.matmul_default);
      ("gemm", O.Gemm.program O.Gemm.default);
    ]
  in
  List.iter (fun (name, closure) -> check_stream name closure (Suite.find name)) closures;
  List.iter
    (fun (name, program) ->
      Alcotest.(check bool) (name ^ " carries a cone plan") true
        ((Lazy.force program).Program.cone <> None);
      Alcotest.(check bool) (name ^ " has its raw IR") true (Suite.find_ir name <> None))
    Suite.all

(* The closure runs every case in full ([Ground_truth.run]); the IR
   program goes through the production executor (prefix snapshots and
   cone replay). *)
let test_quick_outcome_bytes () =
  List.iter
    (fun (what, closure, kernel) ->
      let expected = Ftb_inject.Ground_truth.run (Golden.run (closure ())) in
      let actual =
        Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec
          (Golden.run (Suite.program (kernel ())))
      in
      if not (Bytes.equal expected.outcomes actual.outcomes) then
        Alcotest.failf "%s: exhaustive bit-flip-64 outcome bytes differ" what)
    (List.filter
       (fun (what, _, _) -> List.mem what [ "cg 4x4/6"; "lu 8/2"; "fft 8x4"; "stencil 6/4" ])
       configs)

(* Site count, golden-value fingerprint and exhaustive bit-flip-64
   outcome fingerprint of the programs perfbench runs, as they were
   before the suite moved to IR. *)
let perfbench_pins =
  [
    ("ir.cg", 1185, "cdbfc2840e713e643a6ddfd86d3ebfa7", "1bd86499351be81f6ef9823396d3e36f");
    ("ir.lu", 332, "34ef735fbc002636f4c4da59602de63f", "d953a587019d7f961c05d6c83889dc12");
    ("ir.fft", 1408, "42720d0f35f1573d177b041ed403f583", "092ec21ac402e64b020f193b54b42cde");
    ("ir.gemm", 1024, "dbe8ef80546b13fc58d29e05a0636e02", "dd5d98a0113244c369157054cea88459");
    ("ir.stencil3", 256, "08b6ab59470c99ae9c91622483e2b0f2", "75d7777fdc2d95ebb5ca1b15430974e2");
  ]

let test_perfbench_pins () =
  List.iter
    (fun (name, sites, values, outcomes) ->
      let golden = Golden.run (Suite.find name) in
      Alcotest.(check int) (name ^ ": sites") sites (Golden.sites golden);
      Alcotest.(check string) (name ^ ": golden fingerprint") values
        (Ftb_util.Fingerprint.of_floats golden.Golden.values);
      let gt = Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden in
      Alcotest.(check string) (name ^ ": outcome fingerprint") outcomes
        (Ftb_util.Fingerprint.of_string (Bytes.to_string gt.outcomes)))
    perfbench_pins

let suite =
  [
    Alcotest.test_case "every caller's config = closure stream" `Quick test_configs;
    Alcotest.test_case "suite defaults = closure stream, all with cone" `Quick
      test_suite_defaults;
    Alcotest.test_case "quick configs: exhaustive bytes = closure" `Quick
      test_quick_outcome_bytes;
    Alcotest.test_case "perfbench programs pinned" `Quick test_perfbench_pins;
  ]
