(** The suite kernels as IR programs, with their uninstrumented oracles.

    Every benchmark the suite serves is a structured {!Ftb_ir.Ir.t}
    program, lowered through the optimizing pipeline, so campaigns on it
    run through the batched prefix-snapshot executor and the
    dependent-cone fast path of [Ftb_inject.Executor]. A label table
    ({!Ftb_ir.Ir.set_statics}) gives every recorded statement the phase
    it belongs to ([cg.spmv], [lu.panel], [fft.twiddle], ...), which
    [Regions], [Propagation_view] and the CLI's site listings read.

    The IR has no integer-array indexing, so data-independent index
    structure (CSR rows in CG/Jacobi, FFT bit-reversal and twiddle
    schedules) is specialized at build time into constant-index statements
    sharing one label per phase — legitimate under the paper's
    fixed-computation-sequence assumption (§2.2).

    Each [*_oracle] is the plain, uninstrumented OCaml computation: the
    same operations in the same order, returning the IR program's output
    array bit for bit. They are the reference the IR ports are tested
    against and the [plain] baseline of the overhead study. *)

val cg : grid:int -> iterations:int -> tolerance:float -> record_init:bool -> Ftb_ir.Ir.t
(** Conjugate gradient on the [grid²]-unknown Poisson system with a fixed
    iteration count; output is the final iterate [x]. With [record_init]
    the zero initialisation of [x] and the initial [r = b], [p = r] are
    recorded stores ([3·grid²] sites, phase [cg.init]); without it the
    arrays start at those contents unrecorded. Reductions are scratch
    [Flet] accumulations recorded once; [alpha] and [beta] are guarded
    ([cg.alpha], [cg.beta]). *)

val cg_oracle : grid:int -> iterations:int -> float array

val lu : n:int -> block:int -> seed:int -> tolerance:float -> Ftb_ir.Ir.t
(** Blocked right-looking LU without pivoting of a random diagonally
    dominant matrix, packed output (unit L below the diagonal, U on and
    above); the pivot is guarded ([lu.pivot]). [block] must divide [n]. *)

val lu_oracle : n:int -> block:int -> seed:int -> float array

val fft : n1:int -> n2:int -> seed:int -> tolerance:float -> Ftb_ir.Ir.t
(** Six-step FFT of [n1·n2] random points ([n1], [n2] powers of two):
    transpose, [n2] row FFTs, twiddle, transpose, [n1] row FFTs,
    transpose. Every stored component is a site labelled ["store"] in its
    step's phase; output is the spectrum's real parts, then its imaginary
    parts. *)

val fft_oracle : n1:int -> n2:int -> seed:int -> float array

val jacobi : grid:int -> sweeps:int -> tolerance:float -> Ftb_ir.Ir.t
(** Fixed-sweep Jacobi on the Poisson system, starting from a recorded
    zero initialisation of [x]. [sweeps] must be even: the two grids
    ping-pong, so the result lands back in the output array without a
    copy loop. *)

val jacobi_oracle : grid:int -> sweeps:int -> float array

val gemm : n:int -> block:int -> seed:int -> tolerance:float -> Ftb_ir.Ir.t
(** Cache-blocked GEMM: every per-block partial update of [C] is a
    recorded store. [block] must divide [n]. *)

val gemm_oracle : n:int -> block:int -> seed:int -> float array

val matmul : n:int -> seed:int -> tolerance:float -> Ftb_ir.Ir.t
(** Register-accumulated matmul: recorded loads of [A] and [B], then one
    recorded store per [c_ij]. *)

val matmul_oracle : n:int -> seed:int -> float array

val matvec : n:int -> reps:int -> seed:int -> tolerance:float -> Ftb_ir.Ir.t
(** Chained mat-vec [y ← A y] over a row-sum-normalised (non-expansive)
    random matrix: recorded loads [y[i] = x[i]], then [reps] products,
    every produced element recorded. The output error is exactly linear in
    an injected error, the §5 monotonic workload. *)

val matvec_oracle : n:int -> reps:int -> seed:int -> float array

val stencil : size:int -> sweeps:int -> seed:int -> tolerance:float -> Ftb_ir.Ir.t
(** 2-D five-point averaging stencil on a zero-padded [(size+2)²] grid:
    recorded loads of the random initial grid, then every cell of every
    sweep. The border stands in for bounds checks and is never written.
    [sweeps] must be even (ping-pong). Output is the padded grid, which
    {!stencil_oracle} returns in the same layout. *)

val stencil_oracle : size:int -> sweeps:int -> seed:int -> float array

val suite : (string * (unit -> Ftb_ir.Ir.t)) list
(** The [ir.*] kernels at their campaign configurations, as unoptimized
    builders — the source of [Suite]'s [ir.*] entries and of
    [ftb ir --dump]. *)

val find : string -> Ftb_ir.Ir.t
(** Build the named [ir.*] kernel. Raises [Invalid_argument] with the
    known names on a miss. *)
