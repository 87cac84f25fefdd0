module Program = Ftb_trace.Program

type kernel = { name : string; description : string; ir : Ftb_ir.Ir.t }

(* Lowering goes through the optimizing pipeline, so every entry carries
   the [resumable] prefix-snapshot capability and the dependent-cone
   plan: exhaustive campaigns run through the batched executor's fast
   paths ([Ftb_inject.Executor]), byte-identical by construction. *)
let program k =
  { (Ftb_ir.Pipeline.to_program k.ir) with Program.name = k.name; description = k.description }

let cg ~grid ~iterations ~tolerance =
  {
    name = "cg";
    description =
      Printf.sprintf "conjugate gradient, %dx%d Poisson grid, %d fixed iterations" grid grid
        iterations;
    ir = Ir_kernels.cg ~grid ~iterations ~tolerance ~record_init:true;
  }

let lu ~n ~block ~seed ~tolerance =
  {
    name = "lu";
    description =
      Printf.sprintf "blocked LU (no pivoting), %dx%d matrix, %dx%d blocks" n n block block;
    ir = Ir_kernels.lu ~n ~block ~seed ~tolerance;
  }

let fft ~n1 ~n2 ~seed ~tolerance =
  {
    name = "fft";
    description = Printf.sprintf "six-step FFT, %d points (%d x %d)" (n1 * n2) n1 n2;
    ir = Ir_kernels.fft ~n1 ~n2 ~seed ~tolerance;
  }

let jacobi ~grid ~sweeps ~tolerance =
  {
    name = "jacobi";
    description =
      Printf.sprintf "Jacobi solver, %dx%d Poisson grid, %d fixed sweeps" grid grid sweeps;
    ir = Ir_kernels.jacobi ~grid ~sweeps ~tolerance;
  }

let stencil ~size ~sweeps ~seed ~tolerance =
  {
    name = "stencil";
    description =
      Printf.sprintf "2-D five-point Jacobi stencil, %dx%d grid, %d sweeps" size size sweeps;
    ir = Ir_kernels.stencil ~size ~sweeps ~seed ~tolerance;
  }

let matvec ~n ~reps ~seed ~tolerance =
  {
    name = "matvec";
    description = Printf.sprintf "chained dense mat-vec, %dx%d, %d products" n n reps;
    ir = Ir_kernels.matvec ~n ~reps ~seed ~tolerance;
  }

let matmul ~n ~seed ~tolerance =
  {
    name = "matmul";
    description = Printf.sprintf "dense mat-mul, %dx%d" n n;
    ir = Ir_kernels.matmul ~n ~seed ~tolerance;
  }

let gemm ~n ~block ~seed ~tolerance =
  {
    name = "gemm";
    description = Printf.sprintf "blocked GEMM, %dx%d matrices, %dx%d blocks" n n block block;
    ir = Ir_kernels.gemm ~n ~block ~seed ~tolerance;
  }

(* The named benchmarks at their campaign configurations. *)
let kernels =
  [
    ("cg", fun () -> cg ~grid:8 ~iterations:12 ~tolerance:1e-4);
    ("lu", fun () -> lu ~n:24 ~block:6 ~seed:7 ~tolerance:1e-4);
    ("fft", fun () -> fft ~n1:16 ~n2:8 ~seed:11 ~tolerance:1.0);
    ("jacobi", fun () -> jacobi ~grid:8 ~sweeps:30 ~tolerance:1e-4);
    ("stencil", fun () -> stencil ~size:12 ~sweeps:8 ~seed:3 ~tolerance:1e-4);
    ("matvec", fun () -> matvec ~n:24 ~reps:4 ~seed:5 ~tolerance:1e-3);
    ("matmul", fun () -> matmul ~n:12 ~seed:9 ~tolerance:1e-3);
    ("gemm", fun () -> gemm ~n:16 ~block:4 ~seed:21 ~tolerance:1e-3);
  ]

let all =
  List.map (fun (name, build) -> (name, lazy (program (build ())))) kernels
  @ List.map
      (fun (name, build) -> (name, lazy (Ftb_ir.Pipeline.to_program (build ()))))
      Ir_kernels.suite
let paper_benchmarks = List.filter (fun (name, _) -> List.mem name [ "cg"; "lu"; "fft" ]) all
let names () = List.map fst all

(* Builders are deterministic, so the canonical text and initial state of
   the rebuilt IR — and therefore the compositional profile cache's keys
   (Ftb_compose) — are stable across processes. *)
let find_ir name =
  match List.assoc_opt name kernels with
  | Some build -> Some (build ()).ir
  | None -> Option.map (fun build -> build ()) (List.assoc_opt name Ir_kernels.suite)

let find name =
  match List.assoc_opt name all with
  | Some program -> Lazy.force program
  | None ->
      invalid_arg
        (Printf.sprintf "Suite.find: unknown benchmark %S (expected one of: %s)" name
           (String.concat ", " (names ())))
