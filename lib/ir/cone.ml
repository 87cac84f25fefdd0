module Ctx = Ftb_trace.Ctx
module Program = Ftb_trace.Program

(* Dependent-cone replay: the site-suffix specializer.

   The batched executor already shares a site's injection-free prefix
   across its cases; this analysis removes the *suffix* replay too. One
   instrumented-free analysis run over the structured IR records, for
   every float-producing execution step (an "event": a recorded Fassign or
   Store, or a scratch Flet), which earlier events produced the values it
   reads, the golden values it read, and the golden value it produced.
   That is a complete dataflow graph of the golden execution.

   Corrupting site k can then only change the events reachable from k's
   event through producer->consumer edges — the dependent cone (forward
   slice). Everything outside the cone recomputes its golden value
   bit-identically, so a case's outcome is a pure function of the
   corrupted seed value and the cone: recompute cone events in execution
   order against a mix of recomputed (in-cone) and golden (out-of-cone)
   operands, re-evaluate the guards the cone feeds, and measure the L∞
   deviation of the output elements whose final writers sit in the cone.
   No prefix run, no suffix replay, no output-array copy.

   The specialization is exact only while the corrupted run follows the
   golden control-flow path. Integer state is untaintable by construction
   (fexpr and iexpr are disjoint), so loops cannot diverge; [Fcmp]
   branches can. A site whose cone reaches an event that feeds a float
   branch condition is therefore declined ([cone_lanes] returns [None])
   and the executor falls back to prefix-snapshot replay, as it does for
   sites past the plan's horizon. Guards are *not* a rejection reason: a
   tainted guard is re-evaluated in execution order, and the first
   non-finite value reproduces the full run's crash reason exactly —
   mirroring [Ctx.guard_finite] (NaN before Inf) and [Runner.classify]
   (NaN anywhere in the output dominates, saturated finite differences
   count as Inf).

   Layout. The plan is a handful of flat arrays: one postfix op tape per
   static float expression; per event its tape, its first operand and
   its golden value; per operand a leaf code (the producing event, or an
   index into the initial data); producer->consumer edges in CSR form. A
   site's cases (lanes) are replayed together: the cone is walked once,
   and every member's tape runs over rows of lane values, so
   interpretation is paid per member, not per case, and no intermediate
   float is boxed. All per-call state lives in one domain-local scratch
   shared by every plan, sized by the largest plan and cone seen and a
   fixed lane buffer, so replaying a site allocates nothing that grows
   with the program. *)

module Ibuf = Ftb_util.Growbuf.Ints
module Fbuf = Ftb_util.Growbuf.Floats

(* Tape opcodes, postfix. A leaf pushes the next operand of the event (in
   left-to-right evaluation order); a constant carries its index into the
   constant pool above the low four bits. *)
let op_leaf = 0
let op_const = 1
let op_add = 2
let op_sub = 3
let op_mul = 4
let op_div = 5
let op_neg = 6
let op_abs = 7
let op_sqrt = 8

type tapes = {
  ops : Ibuf.t;
  consts : Fbuf.t;
  starts : Ibuf.t;  (* node -> first op; a final sentinel closes the last *)
  mutable depth : int;  (* deepest stack any node needs *)
}

(* Compile an fexpr to a tape node. The operations are the interpreter's
   IEEE operations in the interpreter's order, so a replayed value is
   bit-identical given bit-identical operands. *)
let compile tp e =
  let node = Ibuf.length tp.starts in
  Ibuf.push tp.starts (Ibuf.length tp.ops);
  (* [go d e] emits [e] with [d] entries below it and returns the deepest
     stack it reaches. *)
  let rec go d e =
    let binary op a b =
      let da = go d a in
      let db = go (d + 1) b in
      Ibuf.push tp.ops op;
      max da db
    in
    let unary op a =
      let da = go d a in
      Ibuf.push tp.ops op;
      da
    in
    match e with
    | Ir.Fconst v ->
        Ibuf.push tp.ops (op_const lor (Fbuf.length tp.consts lsl 4));
        Fbuf.push tp.consts v;
        d + 1
    | Ir.Freg _ | Ir.Fload _ ->
        Ibuf.push tp.ops op_leaf;
        d + 1
    | Ir.Fadd (a, b) -> binary op_add a b
    | Ir.Fsub (a, b) -> binary op_sub a b
    | Ir.Fmul (a, b) -> binary op_mul a b
    | Ir.Fdiv (a, b) -> binary op_div a b
    | Ir.Fneg a -> unary op_neg a
    | Ir.Fabs a -> unary op_abs a
    | Ir.Fsqrt a -> unary op_sqrt a
  in
  tp.depth <- max tp.depth (go 0 e);
  node

(* Body pre-compiled once: every float expression carries its tape node so
   the analysis walk does not recompile per dynamic execution. *)
type cstmt =
  | CReg of int * Ir.fexpr * int * bool  (* reg, expr, node, recorded *)
  | CStore of int * Ir.iexpr * Ir.fexpr * int
  | CIassign of int * Ir.iexpr
  | CFor of int * Ir.iexpr * Ir.iexpr * cstmt list
  | CIfF of [ `Lt | `Le | `Gt | `Ge ] * Ir.fexpr * Ir.fexpr * cstmt list * cstmt list
  | CIfI of [ `Lt | `Le | `Eq | `Ne ] * Ir.iexpr * Ir.iexpr * cstmt list * cstmt list
  | CGuard of Ir.fexpr * int

let rec compile_stmt tp = function
  | Ir.Fassign (r, e, _) -> CReg ((r :> int), e, compile tp e, true)
  | Ir.Flet (r, e) -> CReg ((r :> int), e, compile tp e, false)
  | Ir.Store (a, i, e, _) -> CStore ((a :> int), i, e, compile tp e)
  | Ir.Iassign (r, e) -> CIassign ((r :> int), e)
  | Ir.For (r, lo, hi, b) -> CFor ((r :> int), lo, hi, List.map (compile_stmt tp) b)
  | Ir.If (Ir.Fcmp (op, a, b), yes, no) ->
      CIfF (op, a, b, List.map (compile_stmt tp) yes, List.map (compile_stmt tp) no)
  | Ir.If (Ir.Icmp (op, a, b), yes, no) ->
      CIfI (op, a, b, List.map (compile_stmt tp) yes, List.map (compile_stmt tp) no)
  | Ir.Guard (e, _) -> CGuard (e, compile tp e)

(* Leaf codes: a leaf [q >= 0] reads the value event [q] produced; a leaf
   [q < 0] reads initial datum [-1 - q], an index into the program's
   initial arrays laid end to end. Out of the cone, a leaf's golden value
   is therefore [golden.(q)] or [init.(-1 - q)]. *)
let unassigned = min_int

(* The analysis walk: the golden execution, recording events, guards and
   the leaf codes of their operands into flat buffers. *)
type walk = {
  ev_node : Ibuf.t;
  ev_leaf : Ibuf.t;  (* first leaf of each event *)
  ev_golden : Fbuf.t;
  leaves : Ibuf.t;
  g_node : Ibuf.t;
  g_leaf : Ibuf.t;  (* first leaf of each guard *)
  g_leaves : Ibuf.t;
  cond : Ibuf.t;  (* scratch: leaves of one branch operand *)
  feeders : Ibuf.t;  (* events read by a float branch condition *)
  sites : Ibuf.t;
  fregs : float array;
  freg_prod : int array;  (* producing event, [unassigned] before the first write *)
  iregs : int array;
  arrays : float array array;
  elem_prod : int array array;  (* leaf code of each element's current value *)
}

let rec eval_i w = function
  | Ir.Iconst n -> n
  | Ir.Ireg r -> w.iregs.((r :> int))
  | Ir.Iadd (a, b) -> eval_i w a + eval_i w b
  | Ir.Isub (a, b) -> eval_i w a - eval_i w b
  | Ir.Imul (a, b) -> eval_i w a * eval_i w b

(* Evaluate an fexpr, appending the leaf code of each operand in left to
   right order — the tape's leaf order. *)
let eval_f w leaves e =
  let rec go = function
    | Ir.Fconst v -> v
    | Ir.Freg r ->
        let ri = (r :> int) in
        let q = w.freg_prod.(ri) in
        if q = unassigned then failwith "Cone: read of an unassigned register";
        Ibuf.push leaves q;
        w.fregs.(ri)
    | Ir.Fload (a, ie) ->
        let ai = (a :> int) in
        let i = eval_i w ie in
        let v = w.arrays.(ai).(i) in
        Ibuf.push leaves w.elem_prod.(ai).(i);
        v
    | Ir.Fadd (a, b) ->
        let x = go a in
        let y = go b in
        x +. y
    | Ir.Fsub (a, b) ->
        let x = go a in
        let y = go b in
        x -. y
    | Ir.Fmul (a, b) ->
        let x = go a in
        let y = go b in
        x *. y
    | Ir.Fdiv (a, b) ->
        let x = go a in
        let y = go b in
        x /. y
    | Ir.Fneg a -> -.go a
    | Ir.Fabs a -> abs_float (go a)
    | Ir.Fsqrt a -> sqrt (go a)
  in
  go e

let push_event w node e =
  let id = Ibuf.length w.ev_node in
  Ibuf.push w.ev_leaf (Ibuf.length w.leaves);
  let v = eval_f w w.leaves e in
  Ibuf.push w.ev_node node;
  Fbuf.push w.ev_golden v;
  (id, v)

(* Evaluate a branch operand, marking the events it reads as feeders. *)
let eval_cond w e =
  Ibuf.reset w.cond;
  let v = eval_f w w.cond e in
  for k = 0 to Ibuf.length w.cond - 1 do
    let q = Ibuf.get w.cond k in
    if q >= 0 then Ibuf.push w.feeders q
  done;
  v

let rec exec_c w s =
  match s with
  | CReg (r, e, node, recorded) ->
      let id, v = push_event w node e in
      w.fregs.(r) <- v;
      w.freg_prod.(r) <- id;
      if recorded then Ibuf.push w.sites id
  | CStore (a, ie, e, node) ->
      let i = eval_i w ie in
      let id, v = push_event w node e in
      w.arrays.(a).(i) <- v;
      w.elem_prod.(a).(i) <- id;
      Ibuf.push w.sites id
  | CIassign (r, e) -> w.iregs.(r) <- eval_i w e
  | CFor (r, lo, hi, body) ->
      let lo = eval_i w lo and hi = eval_i w hi in
      for i = lo to hi - 1 do
        w.iregs.(r) <- i;
        List.iter (exec_c w) body
      done
  | CIfF (op, a, b, yes, no) ->
      let x = eval_cond w a in
      let y = eval_cond w b in
      let taken = match op with `Lt -> x < y | `Le -> x <= y | `Gt -> x > y | `Ge -> x >= y in
      List.iter (exec_c w) (if taken then yes else no)
  | CIfI (op, a, b, yes, no) ->
      let x = eval_i w a and y = eval_i w b in
      let taken = match op with `Lt -> x < y | `Le -> x <= y | `Eq -> x = y | `Ne -> x <> y in
      List.iter (exec_c w) (if taken then yes else no)
  | CGuard (e, node) ->
      Ibuf.push w.g_node node;
      Ibuf.push w.g_leaf (Ibuf.length w.g_leaves);
      ignore (eval_f w w.g_leaves e : float)

(* An event's tape node and first leaf share one word. *)
let node_bits = 24
let node_mask = (1 lsl node_bits) - 1

(* Per-event flag bits. *)
let flag_out = 1  (* finally writes an output element *)
let flag_blocked = 2  (* its cone reaches a float branch condition *)

type plan = {
  ops : int array;
  consts : float array;
  starts : int array;
  depth : int;
  ev : int array;  (* per event: first leaf lsl node_bits lor tape node *)
  golden : float array;
  flags : Bytes.t;
  leaves : int array;
  init : float array;
  row_ptr : int array;  (* event -> consumers, CSR over [consumers] *)
  consumers : int array;  (* [c >= 0]: event [c]; [c < 0]: guard [-1 - c] *)
  g_node : int array;
  g_leaf : int array;  (* guards + 1 entries: guard [g] reads [g_leaf.(g), g_leaf.(g+1)) *)
  g_leaves : int array;
  site_ev : int array;
  tolerance : float;
}

(* Producer -> owner edges of every leaf that reads an event, bucketed into
   CSR adjacency over [n] events; events own their leaves as [o], guards
   as [-1 - g]. *)
let consumers_csr ~n ~ev_leaf ~leaves ~g_leaf ~g_leaves =
  let deg = Array.make (n + 1) 0 in
  let count = Array.iter (fun q -> if q >= 0 then deg.(q + 1) <- deg.(q + 1) + 1) in
  count leaves;
  count g_leaves;
  for i = 1 to n do
    deg.(i) <- deg.(i) + deg.(i - 1)
  done;
  let fill = Array.sub deg 0 n in
  let cols = Array.make deg.(n) 0 in
  let add first src code =
    for o = 0 to Array.length first - 2 do
      for k = first.(o) to first.(o + 1) - 1 do
        let q = src.(k) in
        if q >= 0 then begin
          cols.(fill.(q)) <- code o;
          fill.(q) <- fill.(q) + 1
        end
      done
    done
  in
  add ev_leaf leaves (fun o -> o);
  add g_leaf g_leaves (fun g -> -1 - g);
  (deg, cols)

let build (t : Ir.t) =
  let tp = { ops = Ibuf.create (); consts = Fbuf.create (); starts = Ibuf.create (); depth = 1 } in
  let body = List.map (compile_stmt tp) (Ir.body t) in
  Ibuf.push tp.starts (Ibuf.length tp.ops);
  if Ibuf.length tp.starts > node_mask then failwith "Cone: too many float expressions";
  let inits = List.map snd (Ir.arrays t) in
  let base = ref 0 in
  let elem_prod =
    Array.of_list
      (List.map
         (fun a ->
           let b = !base in
           base := b + Array.length a;
           Array.init (Array.length a) (fun i -> -1 - (b + i)))
         inits)
  in
  let w =
    {
      ev_node = Ibuf.create ();
      ev_leaf = Ibuf.create ();
      ev_golden = Fbuf.create ();
      leaves = Ibuf.create ();
      g_node = Ibuf.create ();
      g_leaf = Ibuf.create ();
      g_leaves = Ibuf.create ();
      cond = Ibuf.create ();
      feeders = Ibuf.create ();
      sites = Ibuf.create ();
      fregs = Array.make (max 1 (Ir.n_fregs t)) 0.;
      freg_prod = Array.make (max 1 (Ir.n_fregs t)) unassigned;
      iregs = Array.make (max 1 (Ir.n_iregs t)) 0;
      arrays = Array.of_list (List.map Array.copy inits);
      elem_prod;
    }
  in
  List.iter (exec_c w) body;
  let n = Ibuf.length w.ev_node in
  Ibuf.push w.ev_leaf (Ibuf.length w.leaves);
  Ibuf.push w.g_leaf (Ibuf.length w.g_leaves);
  let ev_leaf = Ibuf.contents w.ev_leaf and leaves = Ibuf.contents w.leaves in
  let g_leaf = Ibuf.contents w.g_leaf and g_leaves = Ibuf.contents w.g_leaves in
  let row_ptr, consumers = consumers_csr ~n ~ev_leaf ~leaves ~g_leaf ~g_leaves in
  let flags = Bytes.make n '\000' in
  let set e bit = Bytes.set flags e (Char.chr (Char.code (Bytes.get flags e) lor bit)) in
  let has e bit = Char.code (Bytes.get flags e) land bit <> 0 in
  Array.iter (fun q -> if q >= 0 then set q flag_out) w.elem_prod.((Ir.output_id t :> int));
  (* An event is blocked when it feeds a float branch or any of its
     consumers is blocked; consumers always come later, so one backward
     pass settles every event. *)
  for k = 0 to Ibuf.length w.feeders - 1 do
    set (Ibuf.get w.feeders k) flag_blocked
  done;
  for e = n - 1 downto 0 do
    if not (has e flag_blocked) then
      for k = row_ptr.(e) to row_ptr.(e + 1) - 1 do
        let c = consumers.(k) in
        if c >= 0 && has c flag_blocked then set e flag_blocked
      done
  done;
  {
    ops = Ibuf.contents tp.ops;
    consts = Fbuf.contents tp.consts;
    starts = Ibuf.contents tp.starts;
    depth = tp.depth;
    ev = Array.init n (fun e -> (ev_leaf.(e) lsl node_bits) lor Ibuf.get w.ev_node e);
    golden = Fbuf.contents w.ev_golden;
    flags;
    leaves;
    init = Array.concat inits;
    row_ptr;
    consumers;
    g_node = Ibuf.contents w.g_node;
    g_leaf;
    g_leaves;
    site_ev = Ibuf.contents w.sites;
    tolerance = Ir.tolerance t;
  }

(* Replay values live in one float buffer per domain, laid out for a
   chunk of [c] lanes and a plan whose tapes need [depth] stack entries:

     [0, depth)                       scalar tape entries, one per depth
     [depth, depth + (depth-1) * c)   lane rows of tape entries 1 ..
     next c                           the lane row a guard evaluates into
     then rows * c                    lane rows of cone members

   A member's row is recycled once the last member or guard reading it
   has run, so a site needs as many rows as it has members live at once,
   not one per member. Its lanes replay in chunks small enough for the
   layout to fit [buffer_floats] (at least one lane per chunk), so the
   buffer is allocated once per domain unless a single lane of some cone
   needs more. *)
let buffer_floats = 1 lsl 14

(* Domain-local replay state, shared by every plan. Between calls every
   [slot] entry is -1 and every [gseen] byte is '\000'; a call restores
   that for the entries it touched. *)
type scratch = {
  mutable slot : int array;  (* event -> member index (walk), then lane row (replay); -2 = queued *)
  mutable members : int array;  (* member index -> event, ascending *)
  mutable heap : int array;  (* walk queue; then death queue at the bottom, free rows at the top *)
  mutable last : int array;  (* member index -> last member index reading it, then its lane row *)
  mutable gseen : Bytes.t;
  mutable guards : int array;  (* tainted guards *)
  mutable gsched : int array;  (* their keys [ready * guards + g], descending *)
  mutable n_members : int;
  mutable n_heap : int;
  mutable n_guards : int;
  mutable n_rows : int;
  mutable buf : float array;
  mutable off : int array;  (* per tape entry: where its value starts in [buf] *)
  mutable row : int array;  (* per tape entry: 1 = a lane row at [off], 0 = a scalar *)
  mutable seeds : float array;
  mutable err : float array;  (* per lane: L∞ output deviation so far *)
  mutable out_nan : int array;  (* per lane: 1 once an output value is NaN *)
  mutable crash_at : int array;  (* per lane: first non-finite guard, [max_int] if none *)
  mutable crash_nan : int array;  (* per lane: 1 when that guard read NaN *)
}

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        slot = [||];
        members = [||];
        heap = [||];
        last = [||];
        gseen = Bytes.empty;
        guards = [||];
        gsched = [||];
        n_members = 0;
        n_heap = 0;
        n_guards = 0;
        n_rows = 0;
        buf = [||];
        off = [||];
        row = [||];
        seeds = [||];
        err = [||];
        out_nan = [||];
        crash_at = [||];
        crash_nan = [||];
      })

(* The calling domain's scratch, grown to fit [p] and [lanes]. *)
let scratch p ~lanes =
  let s = Domain.DLS.get scratch_key in
  let n = Array.length p.golden and ng = Array.length p.g_node in
  if Array.length s.slot < n then s.slot <- Array.make n (-1);
  if Bytes.length s.gseen < ng then begin
    s.gseen <- Bytes.make ng '\000';
    s.guards <- Array.make ng 0;
    s.gsched <- Array.make ng 0
  end;
  if Array.length s.off < p.depth then begin
    s.off <- Array.make p.depth 0;
    s.row <- Array.make p.depth 0
  end;
  if Array.length s.seeds < lanes then begin
    s.seeds <- Array.make lanes 0.;
    s.err <- Array.make lanes 0.;
    s.out_nan <- Array.make lanes 0;
    s.crash_at <- Array.make lanes 0;
    s.crash_nan <- Array.make lanes 0
  end;
  s

let heap_push (h : int array) n (x : int) =
  let i = ref n in
  while !i > 0 && h.((!i - 1) / 2) > x do
    h.(!i) <- h.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.(!i) <- x

(* Remove and return the least of [h.(0 .. n-1)]. *)
let heap_pop (h : int array) n =
  let top = h.(0) in
  let m = n - 1 in
  let x = h.(m) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= m then sifting := false
    else begin
      let c = if l + 1 < m && h.(l + 1) < h.(l) then l + 1 else l in
      if h.(c) < x then begin
        h.(!i) <- h.(c);
        i := c
      end
      else sifting := false
    end
  done;
  if m > 0 then h.(!i) <- x;
  top

(* Member-indexed arrays grow with the largest cone seen, not with the
   plan: most cones are a sliver of the program. *)
let grow a need =
  if Array.length a >= need then a
  else begin
    let b = Array.make (max need (2 * Array.length a)) 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Collect the cone of [seed] into [s.members] in execution order (a
   consumer always follows its producers, so popping the least queued
   event yields a topological order), and the guards it taints into
   [s.guards]. *)
let walk p s seed =
  s.heap <- grow s.heap 1;
  s.slot.(seed) <- -2;
  s.heap.(0) <- seed;
  s.n_heap <- 1;
  while s.n_heap > 0 do
    s.members <- grow s.members (s.n_members + 1);
    let e = heap_pop s.heap s.n_heap in
    s.n_heap <- s.n_heap - 1;
    s.slot.(e) <- s.n_members;
    s.members.(s.n_members) <- e;
    s.n_members <- s.n_members + 1;
    for k = p.row_ptr.(e) to p.row_ptr.(e + 1) - 1 do
      let c = p.consumers.(k) in
      if c >= 0 then begin
        if s.slot.(c) = -1 then begin
          s.slot.(c) <- -2;
          s.heap <- grow s.heap (s.n_heap + 1);
          heap_push s.heap s.n_heap c;
          s.n_heap <- s.n_heap + 1
        end
      end
      else begin
        let g = -1 - c in
        if Bytes.get s.gseen g = '\000' then begin
          Bytes.set s.gseen g '\001';
          s.guards.(s.n_guards) <- g;
          s.n_guards <- s.n_guards + 1
        end
      end
    done
  done

(* Schedule the walked cone. A tainted guard runs right after the last
   member it reads ("ready"); [s.gsched] gets the keys
   [ready * guards + g], sorted descending. Every member then gets a lane
   row, recycled once the last member or guard reading it has run; [slot]
   maps members to rows and [s.n_rows] counts the rows in use at once. *)
let schedule p s =
  let ng = Array.length p.g_node and n = Array.length p.golden in
  let m = s.n_members in
  s.heap <- grow s.heap m;
  s.last <- grow s.last m;
  let h = ref 0 in
  for i = 0 to s.n_guards - 1 do
    let g = s.guards.(i) in
    let ready = ref 0 in
    for k = p.g_leaf.(g) to p.g_leaf.(g + 1) - 1 do
      let q = p.g_leaves.(k) in
      if q >= 0 && s.slot.(q) > !ready then ready := s.slot.(q)
    done;
    heap_push s.gsched !h ((!ready * ng) + g);
    incr h
  done;
  while !h > 0 do
    let key = heap_pop s.gsched !h in
    decr h;
    s.gsched.(!h) <- key
  done;
  (* Last use of each member. *)
  for i = 0 to m - 1 do
    let e = s.members.(i) in
    let last = ref i in
    for k = p.row_ptr.(e) to p.row_ptr.(e + 1) - 1 do
      let c = p.consumers.(k) in
      if c >= 0 && s.slot.(c) > !last then last := s.slot.(c)
    done;
    s.last.(i) <- !last
  done;
  for j = 0 to s.n_guards - 1 do
    let key = s.gsched.(j) in
    let g = key mod ng and ready = key / ng in
    for k = p.g_leaf.(g) to p.g_leaf.(g + 1) - 1 do
      let q = p.g_leaves.(k) in
      if q >= 0 then begin
        let i = s.slot.(q) in
        if i >= 0 && ready > s.last.(i) then s.last.(i) <- ready
      end
    done
  done;
  (* Rows: the members still to die sit in a min-heap keyed by
     [last * n + i] at the bottom of [s.heap], freed rows on a stack at
     its top; together they never hold more than [m] entries. *)
  let top = Array.length s.heap in
  let live = ref 0 and free = ref 0 and rows = ref 0 in
  for i = 0 to m - 1 do
    let r =
      if !free > 0 then begin
        decr free;
        s.heap.(top - 1 - !free)
      end
      else begin
        incr rows;
        !rows - 1
      end
    in
    let die = s.last.(i) in
    s.last.(i) <- r;
    heap_push s.heap !live ((die * n) + i);
    incr live;
    while !live > 0 && s.heap.(0) / n <= i do
      let j = heap_pop s.heap !live mod n in
      decr live;
      s.heap.(top - 1 - !free) <- s.last.(j);
      incr free
    done
  done;
  for i = 0 to m - 1 do
    s.slot.(s.members.(i)) <- s.last.(i)
  done;
  s.n_rows <- !rows

(* Put back the invariant (every slot -1, every guard unseen) for whatever
   this call touched, also after an exception mid-walk. *)
let reset s =
  for i = 0 to s.n_members - 1 do
    s.slot.(s.members.(i)) <- -1
  done;
  for i = 0 to s.n_heap - 1 do
    s.slot.(s.heap.(i)) <- -1
  done;
  for i = 0 to s.n_guards - 1 do
    Bytes.set s.gseen s.guards.(i) '\000'
  done;
  s.n_members <- 0;
  s.n_heap <- 0;
  s.n_guards <- 0;
  s.n_rows <- 0

(* Run tape [node] over [c] lanes into the lane row at [dst]. Leaves are
   the codes [leaves.(leaf0 ..)]: an operand produced inside the cone
   reads its member's row (rows start at [rows]), any other is the golden
   scalar. Scalar entries stay scalar until they meet a row.

   The lane loops index without bounds checks: [replay] sizes the buffer
   for the layout above, and every offset here is one of that layout's
   rows or scalars. *)
let run_tape p s ~node ~leaves ~leaf0 ~c ~rows dst =
  let b = s.buf and off = s.off and row = s.row and depth = p.depth in
  let sp = ref 0 and leaf = ref leaf0 in
  for pc = p.starts.(node) to p.starts.(node + 1) - 1 do
    let op = p.ops.(pc) in
    let code = op land 15 in
    if code = op_leaf then begin
      let d = !sp in
      let q = leaves.(!leaf) in
      let r = if q >= 0 then s.slot.(q) else -1 in
      if r >= 0 then begin
        off.(d) <- rows + (r * c);
        row.(d) <- 1
      end
      else begin
        Array.unsafe_set b d (if q >= 0 then p.golden.(q) else p.init.(-1 - q));
        off.(d) <- d;
        row.(d) <- 0
      end;
      incr leaf;
      sp := d + 1
    end
    else if code = op_const then begin
      let d = !sp in
      Array.unsafe_set b d p.consts.(op lsr 4);
      off.(d) <- d;
      row.(d) <- 0;
      sp := d + 1
    end
    else if code >= op_neg then begin
      let d = !sp - 1 in
      if row.(d) = 0 then begin
        let x = Array.unsafe_get b d in
        Array.unsafe_set b d
          (if code = op_neg then -.x else if code = op_abs then abs_float x else sqrt x)
      end
      else begin
        let xo = off.(d) and zo = if d = 0 then dst else depth + ((d - 1) * c) in
        if code = op_neg then
          for l = 0 to c - 1 do
            Array.unsafe_set b (zo + l) (-.Array.unsafe_get b (xo + l))
          done
        else if code = op_abs then
          for l = 0 to c - 1 do
            Array.unsafe_set b (zo + l) (abs_float (Array.unsafe_get b (xo + l)))
          done
        else
          for l = 0 to c - 1 do
            Array.unsafe_set b (zo + l) (sqrt (Array.unsafe_get b (xo + l)))
          done;
        off.(d) <- zo
      end
    end
    else begin
      let d = !sp - 2 in
      sp := d + 1;
      let xr = row.(d) and yr = row.(d + 1) in
      if xr = 0 && yr = 0 then begin
        let x = Array.unsafe_get b d and y = Array.unsafe_get b (d + 1) in
        Array.unsafe_set b d
          (if code = op_add then x +. y
           else if code = op_sub then x -. y
           else if code = op_mul then x *. y
           else x /. y)
      end
      else begin
        let xo = off.(d) and yo = off.(d + 1) in
        let zo = if d = 0 then dst else depth + ((d - 1) * c) in
        if xr = 0 then begin
          let x = Array.unsafe_get b xo in
          if code = op_add then
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (x +. Array.unsafe_get b (yo + l))
            done
          else if code = op_sub then
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (x -. Array.unsafe_get b (yo + l))
            done
          else if code = op_mul then
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (x *. Array.unsafe_get b (yo + l))
            done
          else
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (x /. Array.unsafe_get b (yo + l))
            done
        end
        else if yr = 0 then begin
          let y = Array.unsafe_get b yo in
          if code = op_add then
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (Array.unsafe_get b (xo + l) +. y)
            done
          else if code = op_sub then
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (Array.unsafe_get b (xo + l) -. y)
            done
          else if code = op_mul then
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (Array.unsafe_get b (xo + l) *. y)
            done
          else
            for l = 0 to c - 1 do
              Array.unsafe_set b (zo + l) (Array.unsafe_get b (xo + l) /. y)
            done
        end
        else if code = op_add then
          for l = 0 to c - 1 do
            Array.unsafe_set b (zo + l)
              (Array.unsafe_get b (xo + l) +. Array.unsafe_get b (yo + l))
          done
        else if code = op_sub then
          for l = 0 to c - 1 do
            Array.unsafe_set b (zo + l)
              (Array.unsafe_get b (xo + l) -. Array.unsafe_get b (yo + l))
          done
        else if code = op_mul then
          for l = 0 to c - 1 do
            Array.unsafe_set b (zo + l)
              (Array.unsafe_get b (xo + l) *. Array.unsafe_get b (yo + l))
          done
        else
          for l = 0 to c - 1 do
            Array.unsafe_set b (zo + l)
              (Array.unsafe_get b (xo + l) /. Array.unsafe_get b (yo + l))
          done;
        off.(d) <- zo;
        row.(d) <- 1
      end
    end
  done;
  (* A bare leaf or an all-scalar expression leaves its value elsewhere. *)
  if row.(0) = 0 then begin
    let x = Array.unsafe_get b 0 in
    for l = 0 to c - 1 do
      Array.unsafe_set b (dst + l) x
    done
  end
  else if off.(0) <> dst then
    for l = 0 to c - 1 do
      Array.unsafe_set b (dst + l) (Array.unsafe_get b (off.(0) + l))
    done

let masked = Program.Cone_masked
let sdc = Program.Cone_sdc
let nan_crash = Program.Cone_crash Ctx.Nan_value
let inf_crash = Program.Cone_crash Ctx.Inf_value

(* Replay the scheduled cone for lanes [0, lanes) into [out]. *)
let replay p s out =
  let lanes = Array.length out in
  let m = s.n_members and depth = p.depth and ng = Array.length p.g_node in
  let chunk = max 1 (min lanes ((buffer_floats - depth) / (depth + s.n_rows))) in
  let need = depth + ((depth + s.n_rows) * chunk) in
  if Array.length s.buf < need then s.buf <- Array.make (max need buffer_floats) 0.;
  let b = s.buf and err = s.err and out_nan = s.out_nan in
  let crash_at = s.crash_at and crash_nan = s.crash_nan in
  let lo = ref 0 in
  while !lo < lanes do
    let c = min chunk (lanes - !lo) in
    let guard_row = depth + ((depth - 1) * c) in
    let rows = guard_row + c in
    Array.fill err 0 c 0.;
    Array.fill out_nan 0 c 0;
    Array.fill crash_at 0 c max_int;
    let next_guard = ref (s.n_guards - 1) in
    for i = 0 to m - 1 do
      let e = s.members.(i) in
      let dst = rows + (s.last.(i) * c) in
      if i = 0 then
        (* The seed is the least event of its cone. *)
        for l = 0 to c - 1 do
          Array.unsafe_set b (dst + l) s.seeds.(!lo + l)
        done
      else
        run_tape p s ~node:(p.ev.(e) land node_mask) ~leaves:p.leaves
          ~leaf0:(p.ev.(e) lsr node_bits) ~c ~rows dst;
      if Char.code (Bytes.get p.flags e) land flag_out <> 0 then begin
        let g = p.golden.(e) in
        for l = 0 to c - 1 do
          let v = Array.unsafe_get b (dst + l) in
          if Float.is_nan v then out_nan.(l) <- 1;
          let d = abs_float (v -. g) in
          let d = if Float.is_nan d then infinity else d in
          if d > err.(l) then err.(l) <- d
        done
      end;
      (* Guards ready after this member; a lane's crash is its first
         non-finite guard in execution order. *)
      while !next_guard >= 0 && s.gsched.(!next_guard) / ng = i do
        let g = s.gsched.(!next_guard) mod ng in
        decr next_guard;
        run_tape p s ~node:p.g_node.(g) ~leaves:p.g_leaves ~leaf0:p.g_leaf.(g) ~c ~rows
          guard_row;
        for l = 0 to c - 1 do
          let v = Array.unsafe_get b (guard_row + l) in
          if g < crash_at.(l) && not (Float.is_finite v) then begin
            crash_at.(l) <- g;
            crash_nan.(l) <- (if Float.is_nan v then 1 else 0)
          end
        done
      done
    done;
    for l = 0 to c - 1 do
      out.(!lo + l) <-
        (if crash_at.(l) < max_int then if crash_nan.(l) = 1 then nan_crash else inf_crash
         else if err.(l) = infinity then if out_nan.(l) = 1 then nan_crash else inf_crash
         else if err.(l) <= p.tolerance then masked
         else sdc)
    done;
    lo := !lo + c
  done

(* The lane runner of one accepted site. *)
let run_site p seed corrupt out =
  let lanes = Array.length out in
  if lanes > 0 then begin
    let s = scratch p ~lanes in
    let g = p.golden.(seed) in
    for l = 0 to lanes - 1 do
      s.seeds.(l) <- corrupt l g
    done;
    match
      walk p s seed;
      schedule p s;
      replay p s out
    with
    | () -> reset s
    | exception e ->
        reset s;
        raise e
  end

let plan (t : Ir.t) : Program.cone_plan =
  let p = build t in
  let sites = Array.length p.site_ev in
  let cone_lanes ~site =
    if
      site < 0 || site >= sites
      || Char.code (Bytes.get p.flags p.site_ev.(site)) land flag_blocked <> 0
    then None
    else Some (run_site p p.site_ev.(site))
  in
  let cone_case ~site =
    Option.map
      (fun run corrupt ->
        let out = [| masked |] in
        run (fun _ -> corrupt) out;
        out.(0))
      (cone_lanes ~site)
  in
  { Program.cone_sites = sites; cone_case; cone_lanes }
