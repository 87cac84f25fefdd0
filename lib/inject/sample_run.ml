module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Runner = Ftb_trace.Runner

type t = {
  fault : Fault.t;
  outcome : Runner.outcome;
  crash_reason : Ftb_trace.Ctx.crash_reason option;
  injected_error : float;
  propagation : (int array * float array) option;
}

(* Reusable trace sinks, one per domain in the common case: a propagation
   run fills two growable buffers with the faulty trace, and campaign
   loops run thousands of cases per domain — reusing the buffers keeps the
   hot loop free of per-case trace allocation. [run_propagation] copies
   anything it returns, so the sink never escapes. *)
let sinks = Ftb_util.Scratch.create Ftb_trace.Ctx.create_sink

(* The non-zero deviations of a traced run, as (site, Δe) pairs. *)
let sparse (prop : Runner.propagation) =
  let devs = prop.Runner.deviations in
  let n = ref 0 in
  Array.iter (fun d -> if d <> 0. then incr n) devs;
  let sites = Array.make !n 0 and values = Array.make !n 0. in
  let i = ref 0 in
  Array.iteri
    (fun k d ->
      if d <> 0. then begin
        sites.(!i) <- prop.Runner.start + k;
        values.(!i) <- d;
        incr i
      end)
    devs;
  (sites, values)

let of_propagation fault (prop : Runner.propagation) =
  let result = prop.Runner.result in
  let propagation =
    match result.Runner.outcome with
    | Runner.Masked -> Some (sparse prop)
    | Runner.Sdc | Runner.Crash -> None
  in
  {
    fault;
    outcome = result.Runner.outcome;
    crash_reason = result.Runner.crash_reason;
    injected_error = result.Runner.injected_error;
    propagation;
  }

let traced ?fuel golden fault corrupt =
  Ftb_util.Scratch.with_ sinks (fun sink ->
      of_propagation fault (Runner.run_propagation_custom ?fuel ~sink golden ~fault ~corrupt))

(* The cone tier: one traced scan of the site's forward cone over the
   plan's golden dataflow. Its outcome and pairs equal the traced run's,
   zeros dropped, wherever the plan covers the site under [fuel]. The
   injected error is the seed site's own deviation (the same formula):
   the first pair when it lies at the fault site, else zero. *)
let of_cone (fault : Fault.t) (outcome, ((sites, deviations) as pairs)) =
  let injected_error =
    if Array.length sites > 0 && sites.(0) = fault.Fault.site then deviations.(0) else 0.
  in
  let outcome, crash_reason, propagation =
    match outcome with
    | Program.Cone_masked -> (Runner.Masked, None, Some pairs)
    | Program.Cone_sdc -> (Runner.Sdc, None, None)
    | Program.Cone_crash reason -> (Runner.Crash, Some reason, None)
  in
  { fault; outcome; crash_reason; injected_error; propagation }

let run_case_model ?fuel (spec : Models.spec) golden case =
  let width = Models.spec_width spec in
  let site = case / width in
  let fault = Fault.make ~site ~bit:(case mod width) in
  let corrupt = Models.case_corrupt spec ~case in
  match Option.bind (Executor.cone_plan ?fuel golden) (fun plan -> plan.Program.cone_trace ~site) with
  | Some run -> of_cone fault (run corrupt)
  | None -> traced ?fuel golden fault corrupt

let run_cases ?fuel golden cases = Array.map (run_case_model ?fuel Models.default_spec golden) cases

let draw_uniform_model rng spec golden ~fraction =
  if not (fraction > 0. && fraction <= 1.) then
    invalid_arg "Sample_run.draw_uniform: fraction must be in (0, 1]";
  let n = Models.total_cases spec ~sites:(Golden.sites golden) in
  let k = max 1 (int_of_float (Float.ceil (fraction *. float_of_int n))) in
  let k = min k n in
  Ftb_util.Sampling.uniform rng ~n ~k

let draw_uniform rng golden ~fraction =
  draw_uniform_model rng Models.default_spec golden ~fraction

let count_outcomes samples =
  let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
  Array.iter
    (fun s ->
      match s.outcome with
      | Runner.Masked -> incr masked
      | Runner.Sdc -> incr sdc
      | Runner.Crash -> incr crash)
    samples;
  (!masked, !sdc, !crash)

let count_cases_model ?fuel spec golden cases =
  let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
  Array.iter
    (fun case ->
      match Ground_truth.outcome_of_byte (Ground_truth.case_byte_model ?fuel spec golden case) with
      | Runner.Masked -> incr masked
      | Runner.Sdc -> incr sdc
      | Runner.Crash -> incr crash)
    cases;
  (!masked, !sdc, !crash)
