(** Registry of the benchmark programs, by name, with their default
    configurations — the entry point used by the CLI, the daemon, the
    bench harness and the examples.

    Every entry is an IR program ({!Ir_kernels}) lowered through
    [Ftb_ir.Pipeline.to_program], so it carries the [resumable]
    prefix-snapshot capability and the dependent-cone plan. *)

type kernel = {
  name : string;  (** registry name, e.g. ["cg"]; becomes the program name *)
  description : string;  (** one line for [ftb list] and reports *)
  ir : Ftb_ir.Ir.t;  (** the unoptimized IR *)
}
(** A named benchmark at one configuration, before lowering. *)

val program : kernel -> Ftb_trace.Program.t
(** Lower through the optimizing pipeline, named and described as the
    kernel. *)

(** {1 The named benchmarks, at any configuration} *)

val cg : grid:int -> iterations:int -> tolerance:float -> kernel
(** {!Ir_kernels.cg} with its initialisation recorded. Default: 8×8 grid,
    12 iterations, [T = 1e-4]. *)

val lu : n:int -> block:int -> seed:int -> tolerance:float -> kernel
(** Default: 24×24, block 6 (four block steps, the paper's four Figure-4
    regions), seed 7, [T = 1e-4]. *)

val fft : n1:int -> n2:int -> seed:int -> tolerance:float -> kernel
(** Default: 16 × 8 = 128 points, seed 11, [T = 1.0]. *)

val jacobi : grid:int -> sweeps:int -> tolerance:float -> kernel
(** Default: 8×8 grid, 30 sweeps, [T = 1e-4]. *)

val stencil : size:int -> sweeps:int -> seed:int -> tolerance:float -> kernel
(** Default: 12×12 grid, 8 sweeps, seed 3, [T = 1e-4]. *)

val matvec : n:int -> reps:int -> seed:int -> tolerance:float -> kernel
(** Default: 24×24, 4 chained products, seed 5, [T = 1e-3]. *)

val matmul : n:int -> seed:int -> tolerance:float -> kernel
(** Default: 12×12, seed 9, [T = 1e-3]. *)

val gemm : n:int -> block:int -> seed:int -> tolerance:float -> kernel
(** Default: 16×16, 4×4 blocks, seed 21, [T = 1e-3]. *)

(** {1 The registry} *)

val paper_benchmarks : (string * Ftb_trace.Program.t Lazy.t) list
(** The three benchmarks of the paper's evaluation, in paper order:
    [cg; lu; fft], at their default configurations. *)

val all : (string * Ftb_trace.Program.t Lazy.t) list
(** Every registered benchmark: the eight named ones at their default
    configurations, then the [ir.*] entries, one per {!Ir_kernels.suite}
    builder. *)

val find : string -> Ftb_trace.Program.t
(** Look a benchmark up by name. Raises [Invalid_argument] listing the
    valid names on a miss. *)

val names : unit -> string list

val find_ir : string -> Ftb_ir.Ir.t option
(** The raw (pre-pipeline) IR behind a registered benchmark, rebuilt
    from its builder; [None] for unknown names. The compositional profile
    cache keys sections off this form; builders are deterministic so the
    keys are stable across processes and daemon restarts. *)
