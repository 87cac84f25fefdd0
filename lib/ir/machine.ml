module Ctx = Ftb_trace.Ctx

(* A flat register machine with an explicit program counter and explicit
   loop bookkeeping. The structured IR interpreter in [Ir] executes loops
   as native OCaml recursion, which makes its execution position
   uncapturable; this machine makes the complete interpreter state a plain
   record of arrays, so the batched campaign executor can snapshot it at an
   injection site and replay only the suffix for each of the site's
   cases.

   Expressions are compiled once into closures over the state (no AST
   walking on the hot path); control flow is compiled into jumps; counted
   loops own a (current, limit) slot pair so their progress is part of the
   snapshot. Evaluation order matches [Ir.exec] exactly — bit-identical
   float streams are a correctness requirement, not a nicety. *)

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

type instr =
  | Record_reg of { reg : int; eval : state -> float; tag : int }
      (** [Fassign]: one dynamic instruction *)
  | Record_store of {
      array_id : int;
      index : state -> int;  (** evaluates and bounds-checks the index *)
      eval : state -> float;
      tag : int;
    }  (** [Store]: one dynamic instruction *)
  | Assign_int of { reg : int; eval : state -> int }
  | Assign_float of { reg : int; eval : state -> float }
      (** [Flet]: float scratch assignment, not a dynamic instruction *)
  | Guard of { eval : state -> float; what : string }
  | Jump of int
  | Branch_false of { cond : state -> bool; target : int }
  | Loop_init of { slot : int; lo : state -> int; hi : state -> int }
  | Loop_head of { slot : int; reg : int; exit : int }
  | Loop_next of { slot : int; head : int }

type t = {
  instrs : instr array;
  n_fregs : int;
  n_iregs : int;
  n_loops : int;
  init_arrays : float array array;
  output : int;
}

let create ~instrs ~fregs ~iregs ~loops ~arrays ~output =
  if output < 0 || output >= Array.length arrays then
    invalid_arg "Machine.create: output array out of range";
  {
    instrs;
    n_fregs = max 1 fregs;
    n_iregs = max 1 iregs;
    n_loops = max 1 loops;
    init_arrays = arrays;
    output;
  }

let fresh_state m =
  {
    pc = 0;
    fregs = Array.make m.n_fregs 0.;
    freg_set = Array.make m.n_fregs false;
    iregs = Array.make m.n_iregs 0;
    ireg_set = Array.make m.n_iregs false;
    arrays = Array.map Array.copy m.init_arrays;
    loop_cur = Array.make m.n_loops 0;
    loop_limit = Array.make m.n_loops 0;
  }

type snapshot = state  (* an exclusive deep copy, never executed in place *)

let copy_state st =
  {
    pc = st.pc;
    fregs = Array.copy st.fregs;
    freg_set = Array.copy st.freg_set;
    iregs = Array.copy st.iregs;
    ireg_set = Array.copy st.ireg_set;
    arrays = Array.map Array.copy st.arrays;
    loop_cur = Array.copy st.loop_cur;
    loop_limit = Array.copy st.loop_limit;
  }

let step m st ctx =
  match m.instrs.(st.pc) with
  | Record_reg { reg; eval; tag } ->
      st.fregs.(reg) <- Ctx.record ctx ~tag (eval st);
      st.freg_set.(reg) <- true;
      st.pc <- st.pc + 1
  | Record_store { array_id; index; eval; tag } ->
      let i = index st in
      st.arrays.(array_id).(i) <- Ctx.record ctx ~tag (eval st);
      st.pc <- st.pc + 1
  | Assign_int { reg; eval } ->
      st.iregs.(reg) <- eval st;
      st.ireg_set.(reg) <- true;
      st.pc <- st.pc + 1
  | Assign_float { reg; eval } ->
      st.fregs.(reg) <- eval st;
      st.freg_set.(reg) <- true;
      st.pc <- st.pc + 1
  | Guard { eval; what } ->
      ignore (Ctx.guard_finite ctx what (eval st));
      st.pc <- st.pc + 1
  | Jump target -> st.pc <- target
  | Branch_false { cond; target } -> st.pc <- (if cond st then st.pc + 1 else target)
  | Loop_init { slot; lo; hi } ->
      (* Bounds are evaluated once at loop entry, limit first — the order
         of [let lo = ... and hi = ...] in the structured interpreter. *)
      let limit = hi st in
      let cur = lo st in
      st.loop_limit.(slot) <- limit;
      st.loop_cur.(slot) <- cur;
      st.pc <- st.pc + 1
  | Loop_head { slot; reg; exit } ->
      if st.loop_cur.(slot) >= st.loop_limit.(slot) then st.pc <- exit
      else begin
        (* The loop variable is rebound from the slot every iteration, so a
           corrupted body write to it cannot change the trip count — same
           as the native [for] of the structured interpreter. *)
        st.iregs.(reg) <- st.loop_cur.(slot);
        st.ireg_set.(reg) <- true;
        st.pc <- st.pc + 1
      end
  | Loop_next { slot; head } ->
      st.loop_cur.(slot) <- st.loop_cur.(slot) + 1;
      st.pc <- head

let finish m st ctx =
  let len = Array.length m.instrs in
  while st.pc < len do
    step m st ctx
  done;
  Array.copy st.arrays.(m.output)

let exec m ctx = finish m (fresh_state m) ctx

let is_record = function
  | Record_reg _ | Record_store _ -> true
  | Assign_int _ | Assign_float _ | Guard _ | Jump _ | Branch_false _ | Loop_init _
  | Loop_head _ | Loop_next _ ->
      false

let prefix m ctx ~stop_at =
  if stop_at < 0 then invalid_arg "Machine.prefix: negative stop_at";
  let st = fresh_state m in
  let len = Array.length m.instrs in
  let rec go () =
    if st.pc >= len then `Done (Array.copy st.arrays.(m.output))
    else if Ctx.length ctx = stop_at && is_record m.instrs.(st.pc) then
      (* About to issue dynamic instruction [stop_at]: everything executed
         so far is the shared, injection-free prefix. *)
      `Paused (copy_state st)
    else begin
      step m st ctx;
      go ()
    end
  in
  go ()

let resume m snapshot ctx = finish m (copy_state snapshot) ctx
