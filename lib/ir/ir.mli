(** A small structured register IR for numerical kernels.

    The paper deploys its instrumentation at the LLVM-IR level; this module
    shows the library is frontend-agnostic by providing a miniature typed
    IR whose interpreter emits the dynamic-instruction stream a
    hand-instrumented kernel would. Every suite benchmark is an IR program
    ([Ftb_kernels.Ir_kernels]). Floating-point assignments and array stores
    are dynamic instructions (fault injection sites); integer index
    arithmetic and control flow are not, matching the paper's data-element
    fault model (§2.1).

    Programs are structured (counted loops, if/else) rather than arbitrary
    CFGs: every well-typed program terminates, and a corrupted float can
    still change control flow through {!Fcmp} conditions — exercising the
    divergence machinery. *)

type freg = private int
(** A floating-point virtual register. *)

type ireg = private int
(** An integer virtual register (index arithmetic; never a fault site). *)

type array_id = private int
(** A named float array. *)

(** Float expressions. *)
type fexpr =
  | Fconst of float
  | Freg of freg
  | Fload of array_id * iexpr  (** [a.(i)] — bounds-checked at runtime *)
  | Fadd of fexpr * fexpr
  | Fsub of fexpr * fexpr
  | Fmul of fexpr * fexpr
  | Fdiv of fexpr * fexpr
  | Fneg of fexpr
  | Fabs of fexpr
  | Fsqrt of fexpr

(** Integer expressions. *)
and iexpr =
  | Iconst of int
  | Ireg of ireg
  | Iadd of iexpr * iexpr
  | Isub of iexpr * iexpr
  | Imul of iexpr * iexpr

(** Conditions. *)
type cond =
  | Fcmp of [ `Lt | `Le | `Gt | `Ge ] * fexpr * fexpr
      (** float comparison — corrupted data can redirect control flow *)
  | Icmp of [ `Lt | `Le | `Eq | `Ne ] * iexpr * iexpr

(** Statements. [label] strings identify static instructions for tracing. *)
type stmt =
  | Fassign of freg * fexpr * string  (** recorded dynamic instruction *)
  | Store of array_id * iexpr * fexpr * string  (** recorded dynamic instruction *)
  | Flet of freg * fexpr
      (** float scratch assignment — {e not} a dynamic instruction, so it is
          never an injection site. The optimizer introduces these for
          hoisted/shared subexpressions; kernels may also use them for
          temporaries that the paper's fault model would not cover. *)
  | Iassign of ireg * iexpr
  | For of ireg * iexpr * iexpr * stmt list
      (** [For (i, lo, hi, body)]: i = lo, lo+1, ..., hi-1 *)
  | If of cond * stmt list * stmt list
  | Guard of fexpr * string  (** crash (NaN trap) when the value is non-finite *)

(** {1 Program construction} *)

type t
(** An IR program under construction / ready to run. *)

val create : name:string -> tolerance:float -> t
(** Fresh program. [tolerance] is the acceptance threshold [T]. *)

val freg : t -> freg
(** Allocate a float register. *)

val ireg : t -> ireg
(** Allocate an integer register. *)

val array : t -> name:string -> init:float array -> array_id
(** Declare an input/working array with initial contents (copied at every
    run). *)

val output_array : t -> array_id -> unit
(** Designate the array whose final contents are the program output.
    Must be called exactly once before running. *)

val set_body : t -> stmt list -> unit
(** Attach the program body. *)

val set_statics : t -> (string * Ftb_trace.Static.info) list -> unit
(** Attach the label table {!to_program} reads: each listed statement
    label registers as the given static instruction (phase and shown
    label), so a port reports the phases of the kernel it mirrors. An
    unlisted label registers under the program name as phase. The table
    only names sites; it changes no value, tag order or site count. *)

val to_program : t -> Ftb_trace.Program.t
(** Lower to an instrumented {!Ftb_trace.Program.t}: the body is compiled
    once to the flat {!Machine} and every run executes the compiled form,
    so golden runs, campaigns, boundaries and studies all work unchanged.
    The resulting program carries the [resumable] prefix-snapshot
    capability — exhaustive campaigns on IR programs run each injection
    site's shared prefix once and replay only the suffix per bit flip
    ([Ftb_inject.Executor]). Raises [Invalid_argument] if the program has
    no body or no output array, or [Ir_error] at run time for
    out-of-bounds accesses and reads of unassigned registers. *)

val to_program_interpreted : t -> Ftb_trace.Program.t
(** Lower via the structured tree-walking interpreter instead of the
    compiled machine: the reference engine. No [resumable] capability, no
    compilation — every run walks the AST. Campaign outcomes must be
    bit-identical to {!to_program}'s. A test oracle only: the
    differential tests and [@ir-smoke] compare the compiled and cone tiers
    against it; no campaign, daemon or benchmark path runs it. *)

val to_machine : t -> Machine.t
(** Compile to the flat machine without building a {!Ftb_trace.Program.t}
    (tags are numbered as {!to_program} numbers them: per distinct
    static instruction, in first-appearance order).
    Mostly for tests and tools that want to drive {!Machine.prefix} /
    {!Machine.resume} directly. *)

exception Ir_error of string
(** Runtime error of the interpreter (out-of-bounds store, negative loop
    bound, etc.). Distinct from {!Ftb_trace.Ctx.Crash}, which models the
    program's own NaN traps. *)

(** {1 Convenience} *)

val interpret_plain : t -> float array
(** Run the IR without instrumentation (oracle for tests). *)

val pp : Format.formatter -> t -> unit
(** Pretty-print a program: array declarations with sizes, the output
    designation, and an indented statement listing. Stable output (useful
    for golden tests and debugging generated IR). *)

val to_string : t -> string
(** [Format.asprintf "%a" pp]. *)

(** {1 Introspection}

    The optimizer ({!Passes}, {!Pipeline}) and the dependent-cone analysis
    ({!Cone}) treat a program as a value: read the body, rewrite it, build
    a structurally-shared copy. *)

val name : t -> string
val tolerance : t -> float

val n_fregs : t -> int
(** Number of float registers allocated so far (fresh ids are [>= n_fregs]). *)

val n_iregs : t -> int

val body : t -> stmt list
(** The attached body. Raises [Invalid_argument] when none is set. *)

val output_id : t -> array_id
(** The designated output array. Raises [Invalid_argument] when unset. *)

val arrays : t -> (string * float array) list
(** Declared arrays in declaration order; position is the [array_id]. The
    initial contents are the live backing store — treat as read-only. *)

val with_body : t -> stmt list -> t
(** Functional copy with a new body. Register allocation on the copy (for
    optimizer temporaries) does not disturb the original. *)

val event_stream : t -> (string * float) list
(** Run the structured interpreter uninstrumented and return the dynamic
    event stream in execution order: [(label, value)] per recorded
    instruction and [("guard:" ^ what, value)] per guard evaluation. The
    stream {e is} the injection-site space, so an optimization pass is
    legal iff it preserves this list with bitwise-equal floats — the
    {!Pipeline} validator compares exactly this. *)

(** {1 Sectioned interpretation}

    Support for the compositional profile cache ({!Ftb_compose}): run the
    structured interpreter over a body partitioned into statement groups,
    capturing the full interpreter state at each group boundary. The state
    serialization is bit-exact (little-endian [Int64.bits_of_float] per
    float; every register with its assigned flag; every array's contents),
    so two serializations are equal iff the remaining computation cannot
    distinguish the two states. *)

val initial_state : t -> string
(** Serialized interpreter state before the first statement runs: all
    registers unset, arrays at their declared initial contents. Computable
    without executing the program — the basis of the whole-boundary cache
    key, so a byte-identical resubmission is recognized without running
    anything. *)

type sectioned_run = {
  sec_entries : string array;
      (** serialized interpreter state at each group's entry; index 0
          equals {!initial_state} *)
  sec_sites : int array;  (** recorded dynamic instructions per group *)
  sec_values : float array;
      (** every recorded value in execution order — must match the golden
          trace bit-exactly or the grouping is unsound *)
  sec_output : float array;  (** final contents of the output array *)
  sec_exit : string;  (** serialized state after the last group *)
}

val run_sectioned : t -> groups:stmt list list -> sectioned_run
(** Interpret the concatenation of [groups] as the program body (the
    caller asserts it is semantically the body — e.g. a peeled loop) and
    capture per-group entry states and site counts. Raises {!Ir_error}
    exactly where {!interpret_plain} would. *)

val validate : t -> (unit, string list) Result.t
(** Static checks, each reported as a human-readable message:
    - the program has a body and an output array;
    - every register read is preceded by an assignment on every path
      (loop bodies are assumed to execute at least zero times, so a
      definition that only happens inside a loop does not count for code
      after it — conservative, like an uninitialised-variable lint);
    - constant array indices are within bounds;
    - [For] loops with constant bounds have [lo <= hi].
    [Ok ()] when nothing is flagged. *)
