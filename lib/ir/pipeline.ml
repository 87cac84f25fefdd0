(* The optimizing pipeline: run passes in sequence, and between every two
   passes re-check the properties that make an optimized program a valid
   stand-in for the original in a fault-injection campaign:

   1. the static validator still accepts the program (def-before-use on
      every path, constant indices in bounds);
   2. the distinct instruction labels, in first-appearance order, are
      unchanged — [Ir.to_program] numbers static tags in exactly that
      order, so this pins the tag <-> label mapping;
   3. the dynamic event stream (labels and bit-exact values of every
      record and guard, in execution order) is unchanged — the stream is
      the injection-site space itself.

   Any violation raises [Pipeline_error] naming the offending pass: a
   miscompile must never silently change campaign ground truth. *)

exception Pipeline_error of string

let labels_of t =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let register label =
    if not (Hashtbl.mem seen label) then begin
      Hashtbl.replace seen label ();
      out := label :: !out
    end
  in
  let rec collect s =
    match s with
    | Ir.Fassign (_, _, label) | Ir.Store (_, _, _, label) -> register label
    | Ir.Flet _ | Ir.Iassign _ | Ir.Guard _ -> ()
    | Ir.For (_, _, _, body) -> List.iter collect body
    | Ir.If (_, a, b) ->
        List.iter collect a;
        List.iter collect b
  in
  List.iter collect (Ir.body t);
  List.rev !out

let stream_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (l1, v1) (l2, v2) ->
         String.equal l1 l2 && Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float v2))
       a b

type pass_stat = {
  pass_name : string;
  stmts_before : int;
  stmts_after : int;
  ops_before : int;
  ops_after : int;
}

let default_passes = Passes.all

let check ~pass_name ~ref_labels ~ref_stream t =
  (match Ir.validate t with
  | Ok () -> ()
  | Error problems ->
      raise
        (Pipeline_error
           (Printf.sprintf "pass %s broke validation: %s" pass_name
              (String.concat "; " problems))));
  if not (List.equal String.equal ref_labels (labels_of t)) then
    raise
      (Pipeline_error
         (Printf.sprintf "pass %s changed the static label sequence" pass_name));
  if not (stream_equal ref_stream (Ir.event_stream t)) then
    raise
      (Pipeline_error
         (Printf.sprintf "pass %s changed the dynamic event stream" pass_name))

let optimize_with_report ?(passes = default_passes) ?(verify = true) t =
  let ref_labels = if verify then labels_of t else [] in
  let ref_stream = if verify then Ir.event_stream t else [] in
  let t, rev_stats =
    List.fold_left
      (fun (t, stats) { Passes.pass_name; run } ->
        let stmts_before = Passes.stmt_count t and ops_before = Passes.op_count t in
        let t' = run t in
        if verify then check ~pass_name ~ref_labels ~ref_stream t';
        let stat =
          {
            pass_name;
            stmts_before;
            stmts_after = Passes.stmt_count t';
            ops_before;
            ops_after = Passes.op_count t';
          }
        in
        (t', stat :: stats))
      (t, []) passes
  in
  (t, List.rev rev_stats)

let optimize ?passes ?verify t = fst (optimize_with_report ?passes ?verify t)

(* Cone plans are retained one at a time, across every program: the one
   forced last stays cached, and forcing another program's plan drops it
   (an executor holds the plan it fetched for as long as it runs). A plan
   is cheap next to the campaign that uses it, while OCaml never hands a
   grown heap back, so keeping every kernel's plan alive would ratchet a
   long-lived daemon's resident memory with each new kernel. The lock also
   keeps two domains from building the same plan at once. *)
let plan_lock = Mutex.create ()
let latest_plan : (int * Ftb_trace.Program.cone_plan option) option ref = ref None
let next_program = Atomic.make 0

let to_program ?passes ?verify t =
  let t = optimize ?passes ?verify t in
  let program = Ir.to_program t in
  let id = Atomic.fetch_and_add next_program 1 in
  let force () =
    Mutex.lock plan_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock plan_lock)
      (fun () ->
        match !latest_plan with
        | Some (owner, plan) when owner = id -> plan
        | Some _ | None ->
            (* Unreachable from here while the next plan is built. *)
            latest_plan := None;
            let plan = try Some (Cone.plan t) with _ -> None in
            latest_plan := Some (id, plan);
            plan)
  in
  Ftb_trace.Program.with_cone program force
