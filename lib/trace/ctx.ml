type crash_reason = Nan_value | Inf_value | Exception_raised | Fuel_exhausted

exception Crash of { reason : crash_reason; what : string }

let crash ~reason fmt =
  Printf.ksprintf (fun what -> raise (Crash { reason; what })) fmt

(* Resettable buffers, so campaign loops can reuse one sink per domain
   instead of allocating (and growing) a fresh pair of arrays for every
   run. *)
module Fbuf = Ftb_util.Growbuf.Floats
module Ibuf = Ftb_util.Growbuf.Ints

type sink = { values : Fbuf.t; statics : Ibuf.t }

let create_sink () = { values = Fbuf.create (); statics = Ibuf.create () }

let reset_sink sink =
  Fbuf.reset sink.values;
  Ibuf.reset sink.statics

type inject = {
  site : int;
  corrupt : float -> float;
  sink : sink option;
  golden_statics : int array option;
  mutable injected : (float * float) option;
  mutable diverged_at : int option;
}

(* The injection modes are split into a pre-site and a post-site variant so
   the hot path after the flip no longer compares every dynamic index
   against the site. [Outcome_post] is the campaign fast path: once an
   outcome-only context has injected, every remaining [record] is pure
   bookkeeping (no site compare, no sink, no statics check, no
   allocation). *)
type mode =
  | Golden_mode of sink
  | Hook_mode of (index:int -> tag:int -> float -> float)
  | Count_mode  (** bookkeeping only — prefix runs of the batched executor *)
  | Inject_pre of inject
  | Inject_post of inject  (** after the flip, sink and/or divergence still active *)
  | Outcome_post of inject  (** after the flip, nothing left to do per record *)

(* [fuel = max_int] means "no budget" — the sentinel keeps the hot path
   allocation-free (no option on every record). *)
type t = { mutable next : int; mutable fuel : int; mutable mode : mode }

let fuel_of = function
  | None -> max_int
  | Some n ->
      if n <= 0 then invalid_arg "Ctx: fuel must be positive" else n

let fresh_sink () = create_sink ()

let golden ?fuel () = { next = 0; fuel = fuel_of fuel; mode = Golden_mode (fresh_sink ()) }
let hooked ?fuel hook = { next = 0; fuel = fuel_of fuel; mode = Hook_mode hook }
let counting ?fuel () = { next = 0; fuel = fuel_of fuel; mode = Count_mode }

let flip_of_fault (fault : Fault.t) v = Ftb_util.Bits.flip ~bit:fault.Fault.bit v

let outcome_custom ?fuel ~site ~corrupt () =
  {
    next = 0;
    fuel = fuel_of fuel;
    mode =
      Inject_pre
        { site; corrupt; sink = None; golden_statics = None; injected = None;
          diverged_at = None };
  }

let outcome_only ?fuel ~fault () =
  outcome_custom ?fuel ~site:fault.Fault.site ~corrupt:(flip_of_fault fault) ()

let propagation_custom ?fuel ?sink ~site ~corrupt ~golden_statics () =
  let sink =
    match sink with
    | Some sink ->
        reset_sink sink;
        sink
    | None -> fresh_sink ()
  in
  {
    next = 0;
    fuel = fuel_of fuel;
    mode =
      Inject_pre
        {
          site;
          corrupt;
          sink = Some sink;
          golden_statics = Some golden_statics;
          injected = None;
          diverged_at = None;
        };
  }

let propagation ?fuel ?sink ~fault ~golden_statics () =
  propagation_custom ?fuel ?sink ~site:fault.Fault.site
    ~corrupt:(flip_of_fault fault) ~golden_statics ()

(* ------------------------------------------------------------------ *)
(* Snapshot / resume: the prefix-snapshot batched executor runs the shared
   prefix of a site's cases once under a [counting] context, then replays
   only the suffix per case under a context resumed at the saved
   position. The context state is just (next, fuel); interpreter state is
   the program's own business (see [Ftb_ir.Machine]). *)

type snapshot = { snap_next : int; snap_fuel : int }

let snapshot t = { snap_next = t.next; snap_fuel = t.fuel }

let resume_custom snapshot ~site ~corrupt =
  if site < snapshot.snap_next then
    invalid_arg
      (Printf.sprintf "Ctx.resume_custom: fault site %d precedes snapshot position %d" site
         snapshot.snap_next);
  {
    next = snapshot.snap_next;
    fuel = snapshot.snap_fuel;
    mode =
      Inject_pre
        {
          site;
          corrupt;
          sink = None;
          golden_statics = None;
          injected = None;
          diverged_at = None;
        };
  }

(* ------------------------------------------------------------------ *)

(* Sink push + divergence detection shared by the pre- and post-site
   injection paths. *)
let inject_bookkeeping inject i tag v =
  (match inject.golden_statics with
  | Some statics when inject.diverged_at = None ->
      if i >= Array.length statics || statics.(i) <> tag then
        inject.diverged_at <- Some (min i (Array.length statics))
  | Some _ | None -> ());
  match inject.sink with
  | Some sink ->
      Fbuf.push sink.values v;
      Ibuf.push sink.statics tag
  | None -> ()

let record t ~tag v =
  if t.fuel <> max_int then begin
    if t.fuel = 0 then
      crash ~reason:Fuel_exhausted "step budget exhausted after %d dynamic instructions"
        t.next;
    t.fuel <- t.fuel - 1
  end;
  let i = t.next in
  t.next <- i + 1;
  match t.mode with
  | Count_mode -> v
  | Outcome_post _ -> v
  | Golden_mode sink ->
      Fbuf.push sink.values v;
      Ibuf.push sink.statics tag;
      v
  | Hook_mode hook -> hook ~index:i ~tag v
  | Inject_post inject ->
      inject_bookkeeping inject i tag v;
      v
  | Inject_pre inject ->
      let v' =
        if i = inject.site then begin
          let corrupted = inject.corrupt v in
          inject.injected <- Some (v, corrupted);
          (* Specialize the remaining run: no more site compares, and for
             outcome-only contexts no per-record work at all. *)
          t.mode <-
            (match (inject.sink, inject.golden_statics) with
            | None, None -> Outcome_post inject
            | _ -> Inject_post inject);
          corrupted
        end
        else v
      in
      inject_bookkeeping inject i tag v';
      v'

let guard_finite _t what v =
  if Ftb_util.Bits.is_finite v then v
  else
    let reason = if Float.is_nan v then Nan_value else Inf_value in
    crash ~reason "non-finite value trapped at %s" what

let length t = t.next
let remaining_fuel t = if t.fuel = max_int then None else Some t.fuel

let sink_exn t name =
  match t.mode with
  | Golden_mode sink -> sink
  | Inject_pre { sink = Some sink; _ } | Inject_post { sink = Some sink; _ } -> sink
  | Inject_pre { sink = None; _ }
  | Inject_post { sink = None; _ }
  | Outcome_post _ | Hook_mode _ | Count_mode ->
      invalid_arg (Printf.sprintf "Ctx.%s: outcome-only context has no trace" name)

let trace_values t = Fbuf.contents (sink_exn t "trace_values").values
let trace_statics t = Ibuf.contents (sink_exn t "trace_statics").statics
let trace_length t = Fbuf.length (sink_exn t "trace_length").values
let trace_value t i = Fbuf.get (sink_exn t "trace_value").values i

let injection t =
  match t.mode with
  | Golden_mode _ | Hook_mode _ | Count_mode -> None
  | Inject_pre inject | Inject_post inject | Outcome_post inject -> inject.injected

let diverged_at t =
  match t.mode with
  | Golden_mode _ | Hook_mode _ | Count_mode -> None
  | Inject_pre inject | Inject_post inject | Outcome_post inject -> inject.diverged_at
