(** Flat register machine: the snapshot-capable IR executor.

    The structured interpreter in {!Ir} runs loops as native OCaml
    recursion — its execution position cannot be captured mid-run. This
    machine compiles an IR body into a flat instruction array with an
    explicit program counter and explicit loop (current, limit) slots, so
    the {e complete} interpreter state is a plain record of scalars and
    arrays. That is what makes prefix-snapshot bit batching possible: for
    each injection site the campaign executor runs the shared prefix once,
    snapshots, and replays only the suffix for each of the site's cases
    (see [Ftb_inject.Executor]).

    Execution is bit-identical to the structured interpreter: expression
    evaluation order, bounds checks, unassigned-register checks, loop
    semantics (bounds evaluated once at entry; the loop variable rebound
    each iteration) and the dynamic-instruction stream all match
    [Ir.exec]. [Ir.to_program] runs every mode — golden, outcome-only,
    propagation — through this machine, so the batched and the full path
    share one engine. *)

type state = {
  mutable pc : int;
  fregs : float array;
  freg_set : bool array;
  iregs : int array;
  ireg_set : bool array;
  arrays : float array array;
  loop_cur : int array;
  loop_limit : int array;
}
(** Mutable execution state. Exposed so {!Ir} can compile expressions into
    closures over it; not intended for direct use elsewhere. *)

(** One flat instruction. [Record_reg]/[Record_store] are the dynamic
    instructions (fault-injection sites); everything else is control flow
    or integer bookkeeping. *)
type instr =
  | Record_reg of { reg : int; eval : state -> float; tag : int }
  | Record_store of {
      array_id : int;
      index : state -> int;
      eval : state -> float;
      tag : int;
    }
  | Assign_int of { reg : int; eval : state -> int }
  | Assign_float of { reg : int; eval : state -> float }
  | Guard of { eval : state -> float; what : string }
  | Jump of int
  | Branch_false of { cond : state -> bool; target : int }
  | Loop_init of { slot : int; lo : state -> int; hi : state -> int }
  | Loop_head of { slot : int; reg : int; exit : int }
  | Loop_next of { slot : int; head : int }

type t
(** A compiled program: instructions plus initial array images. *)

val create :
  instrs:instr array ->
  fregs:int ->
  iregs:int ->
  loops:int ->
  arrays:float array array ->
  output:int ->
  t
(** Assemble a machine. [arrays] are the initial array contents (copied
    into every fresh state); [output] designates the result array. Raises
    [Invalid_argument] when [output] is out of range. *)

val exec : t -> Ftb_trace.Ctx.t -> float array
(** Run the program to completion under the given context and return a
    copy of the output array. *)

type snapshot
(** A deep copy of the machine state at a pause point. Immutable from the
    outside; every {!resume} replays a fresh copy, so one snapshot serves
    any number of replays. *)

val prefix :
  t ->
  Ftb_trace.Ctx.t ->
  stop_at:int ->
  [ `Done of float array | `Paused of snapshot ]
(** Execute from the start until the machine is about to issue dynamic
    instruction number [stop_at] (i.e. the context has recorded exactly
    [stop_at] values and the next instruction is a record). Returns the
    snapshot at that point, or [`Done output] if the program finished
    earlier. Raises [Invalid_argument] when [stop_at < 0]; context crashes
    (e.g. fuel exhaustion inside the prefix) propagate. *)

val resume : t -> snapshot -> Ftb_trace.Ctx.t -> float array
(** Replay a paused execution to completion under a new context (typically
    {!Ftb_trace.Ctx.resume_custom} carrying the injection). The snapshot
    itself is not mutated. *)
