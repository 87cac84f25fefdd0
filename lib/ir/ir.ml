module Ctx = Ftb_trace.Ctx
module Static = Ftb_trace.Static

type freg = int
type ireg = int
type array_id = int

type fexpr =
  | Fconst of float
  | Freg of freg
  | Fload of array_id * iexpr
  | Fadd of fexpr * fexpr
  | Fsub of fexpr * fexpr
  | Fmul of fexpr * fexpr
  | Fdiv of fexpr * fexpr
  | Fneg of fexpr
  | Fabs of fexpr
  | Fsqrt of fexpr

and iexpr = Iconst of int | Ireg of ireg | Iadd of iexpr * iexpr | Isub of iexpr * iexpr | Imul of iexpr * iexpr

type cond =
  | Fcmp of [ `Lt | `Le | `Gt | `Ge ] * fexpr * fexpr
  | Icmp of [ `Lt | `Le | `Eq | `Ne ] * iexpr * iexpr

type stmt =
  | Fassign of freg * fexpr * string
  | Store of array_id * iexpr * fexpr * string
  | Flet of freg * fexpr
  | Iassign of ireg * iexpr
  | For of ireg * iexpr * iexpr * stmt list
  | If of cond * stmt list * stmt list
  | Guard of fexpr * string

exception Ir_error of string

type t = {
  name : string;
  tolerance : float;
  mutable next_freg : int;
  mutable next_ireg : int;
  mutable arrays : (string * float array) list;  (* reverse order of declaration *)
  mutable output : array_id option;
  mutable body : stmt list option;
  mutable statics : (string * Static.info) list;
}

let create ~name ~tolerance =
  {
    name;
    tolerance;
    next_freg = 0;
    next_ireg = 0;
    arrays = [];
    output = None;
    body = None;
    statics = [];
  }

let freg t =
  let r = t.next_freg in
  t.next_freg <- r + 1;
  r

let ireg t =
  let r = t.next_ireg in
  t.next_ireg <- r + 1;
  r

let array t ~name ~init =
  let id = List.length t.arrays in
  t.arrays <- (name, Array.copy init) :: t.arrays;
  id

let output_array t id =
  (match t.output with
  | Some _ -> invalid_arg "Ir.output_array: output already set"
  | None -> ());
  if id < 0 || id >= List.length t.arrays then invalid_arg "Ir.output_array: unknown array";
  t.output <- Some id

let set_body t body = t.body <- Some body
let set_statics t statics = t.statics <- statics

(* ------------------------------------------------------------------ *)
(* Interpreter                                                         *)

type env = {
  fregs : float array;
  freg_set : bool array;
  iregs : int array;
  ireg_set : bool array;
  arrays : float array array;  (* indexed by array_id *)
  record : string -> float -> float;
  guard : string -> float -> float;
}

let rec eval_i env = function
  | Iconst n -> n
  | Ireg r ->
      if not env.ireg_set.(r) then raise (Ir_error "read of unassigned integer register");
      env.iregs.(r)
  | Iadd (a, b) -> eval_i env a + eval_i env b
  | Isub (a, b) -> eval_i env a - eval_i env b
  | Imul (a, b) -> eval_i env a * eval_i env b

let rec eval_f env = function
  | Fconst v -> v
  | Freg r ->
      if not env.freg_set.(r) then raise (Ir_error "read of unassigned float register");
      env.fregs.(r)
  | Fload (a, ie) ->
      let arr = env.arrays.(a) in
      let i = eval_i env ie in
      if i < 0 || i >= Array.length arr then
        raise (Ir_error (Printf.sprintf "load out of bounds: index %d of array length %d" i (Array.length arr)));
      arr.(i)
  | Fadd (a, b) -> eval_f env a +. eval_f env b
  | Fsub (a, b) -> eval_f env a -. eval_f env b
  | Fmul (a, b) -> eval_f env a *. eval_f env b
  | Fdiv (a, b) -> eval_f env a /. eval_f env b
  | Fneg a -> -.eval_f env a
  | Fabs a -> abs_float (eval_f env a)
  | Fsqrt a -> sqrt (eval_f env a)

let eval_cond env = function
  | Fcmp (op, a, b) -> (
      let x = eval_f env a and y = eval_f env b in
      match op with `Lt -> x < y | `Le -> x <= y | `Gt -> x > y | `Ge -> x >= y)
  | Icmp (op, a, b) -> (
      let x = eval_i env a and y = eval_i env b in
      match op with `Lt -> x < y | `Le -> x <= y | `Eq -> x = y | `Ne -> x <> y)

let rec exec env stmt =
  match stmt with
  | Fassign (r, e, label) ->
      env.fregs.(r) <- env.record label (eval_f env e);
      env.freg_set.(r) <- true
  | Store (a, ie, fe, label) ->
      let arr = env.arrays.(a) in
      let i = eval_i env ie in
      if i < 0 || i >= Array.length arr then
        raise (Ir_error (Printf.sprintf "store out of bounds: index %d of array length %d" i (Array.length arr)));
      arr.(i) <- env.record label (eval_f env fe)
  | Flet (r, e) ->
      env.fregs.(r) <- eval_f env e;
      env.freg_set.(r) <- true
  | Iassign (r, e) ->
      env.iregs.(r) <- eval_i env e;
      env.ireg_set.(r) <- true
  | For (r, lo_e, hi_e, body) ->
      let lo = eval_i env lo_e and hi = eval_i env hi_e in
      for i = lo to hi - 1 do
        env.iregs.(r) <- i;
        env.ireg_set.(r) <- true;
        List.iter (exec env) body
      done
  | If (c, then_body, else_body) ->
      if eval_cond env c then List.iter (exec env) then_body
      else List.iter (exec env) else_body
  | Guard (e, what) -> ignore (env.guard what (eval_f env e))

let check_complete t =
  let body = match t.body with Some b -> b | None -> invalid_arg "Ir: program has no body" in
  let output = match t.output with Some o -> o | None -> invalid_arg "Ir: no output array" in
  (body, output)

let make_env (t : t) ~record ~guard =
  let arrays =
    (* t.arrays is in reverse declaration order; array_id i is the i-th
       declared. *)
    let declared = List.rev t.arrays in
    Array.of_list (List.map (fun (_, init) -> Array.copy init) declared)
  in
  {
    fregs = Array.make (max 1 t.next_freg) 0.;
    freg_set = Array.make (max 1 t.next_freg) false;
    iregs = Array.make (max 1 t.next_ireg) 0;
    ireg_set = Array.make (max 1 t.next_ireg) false;
    arrays;
    record;
    guard;
  }

let interpret_plain t =
  let body, output = check_complete t in
  let env = make_env t ~record:(fun _ v -> v) ~guard:(fun _ v -> v) in
  List.iter (exec env) body;
  Array.copy env.arrays.(output)

(* ------------------------------------------------------------------ *)
(* Compilation to the flat machine (Machine): expressions become closures
   over the machine state, control flow becomes jumps, loops get explicit
   (current, limit) slots. Must mirror the structured interpreter above
   operation for operation — the machine's dynamic instruction stream and
   float results are required to be bit-identical to [exec]'s. *)

module M = Machine

let rec compile_i = function
  | Iconst n -> fun (_ : M.state) -> n
  | Ireg r ->
      fun st ->
        if not st.M.ireg_set.(r) then
          raise (Ir_error "read of unassigned integer register");
        st.M.iregs.(r)
  | Iadd (a, b) ->
      let ca = compile_i a and cb = compile_i b in
      fun st -> ca st + cb st
  | Isub (a, b) ->
      let ca = compile_i a and cb = compile_i b in
      fun st -> ca st - cb st
  | Imul (a, b) ->
      let ca = compile_i a and cb = compile_i b in
      fun st -> ca st * cb st

let rec compile_f = function
  | Fconst v -> fun (_ : M.state) -> v
  | Freg r ->
      fun st ->
        if not st.M.freg_set.(r) then
          raise (Ir_error "read of unassigned float register");
        st.M.fregs.(r)
  | Fload (a, ie) ->
      let ci = compile_i ie in
      fun st ->
        let arr = st.M.arrays.(a) in
        let i = ci st in
        if i < 0 || i >= Array.length arr then
          raise
            (Ir_error
               (Printf.sprintf "load out of bounds: index %d of array length %d" i
                  (Array.length arr)));
        arr.(i)
  | Fadd (a, b) ->
      let ca = compile_f a and cb = compile_f b in
      fun st -> ca st +. cb st
  | Fsub (a, b) ->
      let ca = compile_f a and cb = compile_f b in
      fun st -> ca st -. cb st
  | Fmul (a, b) ->
      let ca = compile_f a and cb = compile_f b in
      fun st -> ca st *. cb st
  | Fdiv (a, b) ->
      let ca = compile_f a and cb = compile_f b in
      fun st -> ca st /. cb st
  | Fneg a ->
      let ca = compile_f a in
      fun st -> -.(ca st)
  | Fabs a ->
      let ca = compile_f a in
      fun st -> abs_float (ca st)
  | Fsqrt a ->
      let ca = compile_f a in
      fun st -> sqrt (ca st)

let compile_cond = function
  | Fcmp (op, a, b) -> (
      let ca = compile_f a and cb = compile_f b in
      match op with
      | `Lt -> fun st -> ca st < cb st
      | `Le -> fun st -> ca st <= cb st
      | `Gt -> fun st -> ca st > cb st
      | `Ge -> fun st -> ca st >= cb st)
  | Icmp (op, a, b) -> (
      let ca = compile_i a and cb = compile_i b in
      match op with
      | `Lt -> fun st -> ca st < cb st
      | `Le -> fun st -> ca st <= cb st
      | `Eq -> fun st -> ca st = cb st
      | `Ne -> fun st -> ca st <> cb st)

let compile_machine (t : t) tags =
  let body, output = check_complete t in
  let arrays = Array.of_list (List.map snd (List.rev t.arrays)) in
  let code = ref (Array.make 64 (M.Jump 0)) in
  let len = ref 0 in
  let emit instr =
    if !len = Array.length !code then begin
      let grown = Array.make (2 * !len) (M.Jump 0) in
      Array.blit !code 0 grown 0 !len;
      code := grown
    end;
    !code.(!len) <- instr;
    incr len;
    !len - 1
  in
  let patch at instr = !code.(at) <- instr in
  let here () = !len in
  let n_loops = ref 0 in
  let rec compile_stmt stmt =
    match stmt with
    | Fassign (r, e, label) ->
        ignore
          (emit (M.Record_reg { reg = r; eval = compile_f e; tag = Hashtbl.find tags label }))
    | Store (a, ie, fe, label) ->
        let ci = compile_i ie in
        let index st =
          let arr = st.M.arrays.(a) in
          let i = ci st in
          if i < 0 || i >= Array.length arr then
            raise
              (Ir_error
                 (Printf.sprintf "store out of bounds: index %d of array length %d" i
                    (Array.length arr)));
          i
        in
        ignore
          (emit
             (M.Record_store
                { array_id = a; index; eval = compile_f fe; tag = Hashtbl.find tags label }))
    | Flet (r, e) -> ignore (emit (M.Assign_float { reg = r; eval = compile_f e }))
    | Iassign (r, e) -> ignore (emit (M.Assign_int { reg = r; eval = compile_i e }))
    | Guard (e, what) -> ignore (emit (M.Guard { eval = compile_f e; what }))
    | For (r, lo, hi, loop_body) ->
        let slot = !n_loops in
        incr n_loops;
        ignore (emit (M.Loop_init { slot; lo = compile_i lo; hi = compile_i hi }));
        let head = here () in
        let head_at = emit (M.Jump 0) in
        List.iter compile_stmt loop_body;
        ignore (emit (M.Loop_next { slot; head }));
        patch head_at (M.Loop_head { slot; reg = r; exit = here () })
    | If (c, then_body, else_body) -> (
        let cond = compile_cond c in
        let branch_at = emit (M.Jump 0) in
        List.iter compile_stmt then_body;
        match else_body with
        | [] -> patch branch_at (M.Branch_false { cond; target = here () })
        | _ ->
            let jump_at = emit (M.Jump 0) in
            patch branch_at (M.Branch_false { cond; target = here () });
            List.iter compile_stmt else_body;
            patch jump_at (M.Jump (here ())))
  in
  List.iter compile_stmt body;
  M.create ~instrs:(Array.sub !code 0 !len) ~fregs:t.next_freg ~iregs:t.next_ireg
    ~loops:!n_loops ~arrays ~output

(* Every distinct label, in first-appearance order, registered as a static
   instruction: the (phase, label) pair [set_statics] gave it, else the
   program name as phase and the label itself. Pre-registering keeps tags
   stable across runs; returns the table and the label -> tag map. *)
let register_statics t body =
  let statics = Static.create_table () in
  let tags = Hashtbl.create 64 in
  let register label =
    if not (Hashtbl.mem tags label) then begin
      let { Static.phase; label = shown } =
        match List.assoc_opt label t.statics with
        | Some info -> info
        | None -> { Static.phase = t.name; label }
      in
      Hashtbl.replace tags label (Static.register statics ~phase ~label:shown)
    end
  in
  let rec collect stmt =
    match stmt with
    | Fassign (_, _, label) | Store (_, _, _, label) -> register label
    | Flet _ | Iassign _ | Guard _ -> ()
    | For (_, _, _, stmts) -> List.iter collect stmts
    | If (_, a, b) ->
        List.iter collect a;
        List.iter collect b
  in
  List.iter collect body;
  (statics, tags)

let to_program t =
  let body, _output = check_complete t in
  let statics, tags = register_statics t body in
  let machine = compile_machine t tags in
  (* Every mode — golden, outcome-only, propagation AND the batched
     prefix/resume path — runs through the one compiled machine, so the
     snapshot executor shares its engine with full re-execution. *)
  let run ctx = M.exec machine ctx in
  let resumable ctx ~stop_at =
    match M.prefix machine ctx ~stop_at with
    | `Done output -> Ftb_trace.Program.Completed output
    | `Paused snapshot ->
        Ftb_trace.Program.Paused (fun ctx' -> M.resume machine snapshot ctx')
  in
  Ftb_trace.Program.make ~resumable ~name:t.name
    ~description:(Printf.sprintf "IR program %s" t.name)
    ~tolerance:t.tolerance ~statics run

let to_program_interpreted t =
  let body, output = check_complete t in
  let statics, tags = register_statics t body in
  let run ctx =
    let env =
      make_env t
        ~record:(fun label v -> Ctx.record ctx ~tag:(Hashtbl.find tags label) v)
        ~guard:(fun what v -> Ctx.guard_finite ctx what v)
    in
    List.iter (exec env) body;
    Array.copy env.arrays.(output)
  in
  Ftb_trace.Program.make ~name:t.name
    ~description:(Printf.sprintf "IR program %s (tree-walking engine)" t.name)
    ~tolerance:t.tolerance ~statics run

let to_machine t =
  compile_machine t (snd (register_statics t (Option.value t.body ~default:[])))

(* ------------------------------------------------------------------ *)
(* Pretty-printer                                                      *)

let rec pp_iexpr ppf = function
  | Iconst n -> Format.fprintf ppf "%d" n
  | Ireg r -> Format.fprintf ppf "i%d" r
  | Iadd (a, b) -> Format.fprintf ppf "(%a + %a)" pp_iexpr a pp_iexpr b
  | Isub (a, b) -> Format.fprintf ppf "(%a - %a)" pp_iexpr a pp_iexpr b
  | Imul (a, b) -> Format.fprintf ppf "(%a * %a)" pp_iexpr a pp_iexpr b

let array_name (t : t) id =
  match List.nth_opt (List.rev t.arrays) id with
  | Some (name, _) -> name
  | None -> Printf.sprintf "a%d" id

let rec pp_fexpr t ppf = function
  | Fconst v -> Format.fprintf ppf "%g" v
  | Freg r -> Format.fprintf ppf "f%d" r
  | Fload (a, i) -> Format.fprintf ppf "%s[%a]" (array_name t a) pp_iexpr i
  | Fadd (a, b) -> Format.fprintf ppf "(%a + %a)" (pp_fexpr t) a (pp_fexpr t) b
  | Fsub (a, b) -> Format.fprintf ppf "(%a - %a)" (pp_fexpr t) a (pp_fexpr t) b
  | Fmul (a, b) -> Format.fprintf ppf "(%a * %a)" (pp_fexpr t) a (pp_fexpr t) b
  | Fdiv (a, b) -> Format.fprintf ppf "(%a / %a)" (pp_fexpr t) a (pp_fexpr t) b
  | Fneg a -> Format.fprintf ppf "(-%a)" (pp_fexpr t) a
  | Fabs a -> Format.fprintf ppf "abs(%a)" (pp_fexpr t) a
  | Fsqrt a -> Format.fprintf ppf "sqrt(%a)" (pp_fexpr t) a

let pp_cond t ppf = function
  | Fcmp (op, a, b) ->
      let sym = match op with `Lt -> "<" | `Le -> "<=" | `Gt -> ">" | `Ge -> ">=" in
      Format.fprintf ppf "%a %s %a" (pp_fexpr t) a sym (pp_fexpr t) b
  | Icmp (op, a, b) ->
      let sym = match op with `Lt -> "<" | `Le -> "<=" | `Eq -> "==" | `Ne -> "!=" in
      Format.fprintf ppf "%a %s %a" pp_iexpr a sym pp_iexpr b

let rec pp_stmt t ~indent ppf stmt =
  let pad = String.make indent ' ' in
  match stmt with
  | Fassign (r, e, label) ->
      Format.fprintf ppf "%sf%d = %a        ; %s@." pad r (pp_fexpr t) e label
  | Store (a, i, e, label) ->
      Format.fprintf ppf "%s%s[%a] = %a        ; %s@." pad (array_name t a) pp_iexpr i
        (pp_fexpr t) e label
  | Flet (r, e) -> Format.fprintf ppf "%sf%d := %a@." pad r (pp_fexpr t) e
  | Iassign (r, e) -> Format.fprintf ppf "%si%d = %a@." pad r pp_iexpr e
  | For (r, lo, hi, body) ->
      Format.fprintf ppf "%sfor i%d = %a to %a - 1 {@." pad r pp_iexpr lo pp_iexpr hi;
      List.iter (pp_stmt t ~indent:(indent + 2) ppf) body;
      Format.fprintf ppf "%s}@." pad
  | If (c, then_body, else_body) ->
      Format.fprintf ppf "%sif %a {@." pad (pp_cond t) c;
      List.iter (pp_stmt t ~indent:(indent + 2) ppf) then_body;
      (match else_body with
      | [] -> Format.fprintf ppf "%s}@." pad
      | _ ->
          Format.fprintf ppf "%s} else {@." pad;
          List.iter (pp_stmt t ~indent:(indent + 2) ppf) else_body;
          Format.fprintf ppf "%s}@." pad)
  | Guard (e, what) -> Format.fprintf ppf "%sguard %a        ; %s@." pad (pp_fexpr t) e what

let pp ppf (t : t) =
  Format.fprintf ppf "program %s (tolerance %g)@." t.name t.tolerance;
  List.iteri
    (fun i (name, init) ->
      Format.fprintf ppf "  array %s[%d]%s@." name (Array.length init)
        (match t.output with Some o when o = i -> "  ; output" | _ -> ""))
    (List.rev t.arrays);
  match t.body with
  | None -> Format.fprintf ppf "  (no body)@."
  | Some body -> List.iter (pp_stmt t ~indent:2 ppf) body

let to_string t = Format.asprintf "%a" pp t

(* ------------------------------------------------------------------ *)
(* Static validator                                                    *)

module Iset = Set.Make (Int)

let validate (t : t) =
  let problems = ref [] in
  let flag fmt = Printf.ksprintf (fun msg -> problems := msg :: !problems) fmt in
  (match t.body with None -> flag "program has no body" | Some _ -> ());
  (match t.output with None -> flag "no output array designated" | Some _ -> ());
  let arrays = Array.of_list (List.rev t.arrays) in
  let check_const_index a idx context =
    match idx with
    | Iconst i ->
        let _, init = arrays.(a) in
        if i < 0 || i >= Array.length init then
          flag "%s: constant index %d out of bounds for array %s[%d]" context i
            (fst arrays.(a)) (Array.length init)
    | Ireg _ | Iadd _ | Isub _ | Imul _ -> ()
  in
  (* Walk expressions collecting register reads. *)
  let rec iexpr_reads acc = function
    | Iconst _ -> acc
    | Ireg r -> (`I r) :: acc
    | Iadd (a, b) | Isub (a, b) | Imul (a, b) -> iexpr_reads (iexpr_reads acc a) b
  in
  let rec fexpr_reads context acc = function
    | Fconst _ -> acc
    | Freg r -> (`F r) :: acc
    | Fload (a, i) ->
        check_const_index a i context;
        iexpr_reads acc i
    | Fadd (a, b) | Fsub (a, b) | Fmul (a, b) | Fdiv (a, b) ->
        fexpr_reads context (fexpr_reads context acc a) b
    | Fneg a | Fabs a | Fsqrt a -> fexpr_reads context acc a
  in
  let check_reads context (fdef, idef) reads =
    List.iter
      (fun read ->
        match read with
        | `F r ->
            if not (Iset.mem r fdef) then
              flag "%s: float register f%d may be read before assignment" context r
        | `I r ->
            if not (Iset.mem r idef) then
              flag "%s: integer register i%d may be read before assignment" context r)
      reads
  in
  (* Forward dataflow over the structured body: returns the registers
     definitely assigned after the statement list. Loop bodies may run
     zero times, so their definitions do not escape; If branches
     contribute the intersection of both arms. *)
  let rec flow (fdef, idef) stmts =
    List.fold_left
      (fun (fdef, idef) stmt ->
        match stmt with
        | Fassign (r, e, label) ->
            check_reads label (fdef, idef) (fexpr_reads label [] e);
            (Iset.add r fdef, idef)
        | Store (a, i, e, label) ->
            check_const_index a i label;
            check_reads label (fdef, idef) (fexpr_reads label (iexpr_reads [] i) e);
            (fdef, idef)
        | Flet (r, e) ->
            check_reads "flet" (fdef, idef) (fexpr_reads "flet" [] e);
            (Iset.add r fdef, idef)
        | Iassign (r, e) ->
            check_reads "iassign" (fdef, idef) (iexpr_reads [] e);
            (fdef, Iset.add r idef)
        | For (r, lo, hi, body) ->
            check_reads "for bounds" (fdef, idef) (iexpr_reads (iexpr_reads [] lo) hi);
            (match (lo, hi) with
            | Iconst l, Iconst h when l > h -> flag "for i%d: constant bounds %d > %d" r l h
            | _ -> ());
            ignore (flow (fdef, Iset.add r idef) body);
            (fdef, idef)
        | If (c, then_body, else_body) ->
            (match c with
            | Fcmp (_, a, b) ->
                check_reads "if condition" (fdef, idef)
                  (fexpr_reads "if condition" (fexpr_reads "if condition" [] a) b)
            | Icmp (_, a, b) ->
                check_reads "if condition" (fdef, idef) (iexpr_reads (iexpr_reads [] a) b));
            let f1, i1 = flow (fdef, idef) then_body in
            let f2, i2 = flow (fdef, idef) else_body in
            (Iset.inter f1 f2, Iset.inter i1 i2)
        | Guard (e, what) ->
            check_reads what (fdef, idef) (fexpr_reads what [] e);
            (fdef, idef))
      (fdef, idef) stmts
  in
  (match t.body with
  | Some body -> ignore (flow (Iset.empty, Iset.empty) body)
  | None -> ());
  match List.rev !problems with [] -> Ok () | list -> Error list

(* ------------------------------------------------------------------ *)
(* Introspection: the optimizer (Passes / Pipeline) and the cone
   analysis (Cone) live in sibling modules and manipulate the body as a
   value. *)

let name (t : t) = t.name
let tolerance (t : t) = t.tolerance
let n_fregs (t : t) = t.next_freg
let n_iregs (t : t) = t.next_ireg
let body t = fst (check_complete t)
let output_id t = snd (check_complete t)
let arrays (t : t) = List.rev t.arrays

let with_body (t : t) body =
  {
    name = t.name;
    tolerance = t.tolerance;
    next_freg = t.next_freg;
    next_ireg = t.next_ireg;
    arrays = t.arrays;
    output = t.output;
    body = Some body;
    statics = t.statics;
  }

let event_stream t =
  let body, _output = check_complete t in
  let events = ref [] in
  let env =
    make_env t
      ~record:(fun label v ->
        events := (label, v) :: !events;
        v)
      ~guard:(fun what v ->
        events := ("guard:" ^ what, v) :: !events;
        v)
  in
  List.iter (exec env) body;
  List.rev !events

(* ------------------------------------------------------------------ *)
(* Sectioned golden interpretation (Ftb_compose).

   The compositional profile cache splits a body into statement groups and
   keys each group's cached profile by the interpreter state at group
   entry plus the canonical text of the remaining groups. The state
   serialization is bit-exact (little-endian [Int64.bits_of_float] per
   float) and covers everything the remaining computation can observe:
   every register with its assigned flag and every array's full contents.
   Unset registers serialize as zero — their stored value is unobservable
   (reading one raises [Ir_error]), so normalizing removes spurious key
   differences between programs that only differ in dead register
   residue. *)

let serialize_env (env : env) =
  let buf = Buffer.create 1024 in
  let add_float v = Buffer.add_int64_le buf (Int64.bits_of_float v) in
  Buffer.add_string buf "f:";
  Array.iteri
    (fun i v ->
      let set = env.freg_set.(i) in
      Buffer.add_char buf (if set then '\001' else '\000');
      add_float (if set then v else 0.))
    env.fregs;
  Buffer.add_string buf "i:";
  Array.iteri
    (fun i v ->
      let set = env.ireg_set.(i) in
      Buffer.add_char buf (if set then '\001' else '\000');
      Buffer.add_int64_le buf (Int64.of_int (if set then v else 0)))
    env.iregs;
  Buffer.add_string buf "a:";
  Array.iter
    (fun arr ->
      Buffer.add_int64_le buf (Int64.of_int (Array.length arr));
      Array.iter add_float arr)
    env.arrays;
  Buffer.contents buf

let initial_state t =
  ignore (check_complete t);
  serialize_env (make_env t ~record:(fun _ v -> v) ~guard:(fun _ v -> v))

type sectioned_run = {
  sec_entries : string array;
  sec_sites : int array;
  sec_values : float array;
  sec_output : float array;
  sec_exit : string;
}

let run_sectioned t ~groups =
  let _body, output = check_complete t in
  let values = ref [] and count = ref 0 in
  let env =
    make_env t
      ~record:(fun _ v ->
        values := v :: !values;
        incr count;
        v)
      ~guard:(fun _ v -> v)
  in
  let n = List.length groups in
  let entries = Array.make n "" and sites = Array.make n 0 in
  List.iteri
    (fun i group ->
      entries.(i) <- serialize_env env;
      let before = !count in
      List.iter (exec env) group;
      sites.(i) <- !count - before)
    groups;
  {
    sec_entries = entries;
    sec_sites = sites;
    sec_values = Array.of_list (List.rev !values);
    sec_output = Array.copy env.arrays.(output);
    sec_exit = serialize_env env;
  }
