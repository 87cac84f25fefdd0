type outcome = Masked | Sdc | Crash

let outcome_equal a b =
  match (a, b) with
  | Masked, Masked | Sdc, Sdc | Crash, Crash -> true
  | (Masked | Sdc | Crash), _ -> false

let outcome_to_string = function Masked -> "masked" | Sdc -> "sdc" | Crash -> "crash"

type result = {
  fault : Fault.t;
  outcome : outcome;
  crash_reason : Ctx.crash_reason option;
  injected_error : float;
  output_error : float;
}

type propagation = {
  result : result;
  start : int;
  stop : int;
  deviations : float array;
}

let check_fault (golden : Golden.t) (fault : Fault.t) =
  let sites = Golden.sites golden in
  if fault.Fault.site >= sites then
    invalid_arg
      (Printf.sprintf "Runner: fault site %d outside dynamic range [0,%d)" fault.Fault.site
         sites)

let injected_error_of ctx =
  match Ctx.injection ctx with
  | None -> (* run crashed before reaching the target site *) infinity
  | Some (original, corrupted) ->
      let err = abs_float (corrupted -. original) in
      if Float.is_nan err then infinity else err

(* Taxonomy of a crash detected at the output: a NaN anywhere dominates,
   then an infinity; a non-finite L∞ error with a fully finite output means
   the *difference* overflowed, which is still an Inf-class anomaly. *)
let output_crash_reason output =
  if Array.exists Float.is_nan output then Ctx.Nan_value else Ctx.Inf_value

let classify (golden : Golden.t) output =
  let tolerance = golden.Golden.program.Program.tolerance in
  if Array.length output <> Array.length golden.Golden.output then
    (Crash, Some Ctx.Exception_raised, infinity)
  else begin
    let err = Ftb_util.Norms.linf golden.Golden.output output in
    if err = infinity then (Crash, Some (output_crash_reason output), infinity)
    else if err <= tolerance then (Masked, None, err)
    else (Sdc, None, err)
  end

(* Classify one execution of [run] (normally the program body, but the
   batched executor passes a suffix replay of a paused execution) under an
   already-positioned injecting context. *)
let outcome_of_run (golden : Golden.t) fault ctx run =
  match run ctx with
  | output ->
      let outcome, crash_reason, output_error = classify golden output in
      { fault; outcome; crash_reason; injected_error = injected_error_of ctx; output_error }
  | exception Ctx.Crash { reason; _ } ->
      { fault; outcome = Crash; crash_reason = Some reason;
        injected_error = injected_error_of ctx; output_error = infinity }

(* Crash isolation for campaigns: any exception escaping the kernel body —
   not just the cooperative [Ctx.Crash] — is contained and classified, so a
   single broken case cannot abort an hours-long campaign. Asynchronous
   resource exhaustion is not containable and still propagates. *)
let outcome_of_run_contained (golden : Golden.t) fault ctx run =
  match outcome_of_run golden fault ctx run with
  | result -> result
  | exception Out_of_memory -> raise Out_of_memory
  | exception _ ->
      { fault; outcome = Crash; crash_reason = Some Ctx.Exception_raised;
        injected_error = injected_error_of ctx; output_error = infinity }

let finish_outcome (golden : Golden.t) fault ctx =
  outcome_of_run golden fault ctx golden.Golden.program.Program.body

let run_outcome ?fuel (golden : Golden.t) fault =
  check_fault golden fault;
  finish_outcome golden fault (Ctx.outcome_only ?fuel ~fault ())

let run_outcome_custom_contained ?fuel (golden : Golden.t) ~site ~corrupt =
  let fault = Fault.make ~site ~bit:0 in
  check_fault golden fault;
  let ctx = Ctx.outcome_custom ?fuel ~site ~corrupt () in
  outcome_of_run_contained golden fault ctx golden.Golden.program.Program.body

(* Shared tail of the propagation runners: execute the body under an
   already-constructed propagation context and diff the faulty trace. *)
let finish_propagation (golden : Golden.t) (fault : Fault.t) ctx =
  let outcome, crash_reason, output_error =
    match golden.Golden.program.Program.body ctx with
    | output -> classify golden output
    | exception Ctx.Crash { reason; _ } -> (Crash, Some reason, infinity)
  in
  let result =
    { fault; outcome; crash_reason; injected_error = injected_error_of ctx; output_error }
  in
  let golden_len = Golden.sites golden in
  let start = fault.Fault.site in
  let stop =
    (* Read the faulty trace in place (no [Array.sub] copy of the whole
       trace — it is as long as the run itself). *)
    let bound = min golden_len (Ctx.trace_length ctx) in
    match Ctx.diverged_at ctx with Some d -> min d bound | None -> bound
  in
  let stop = max start stop in
  let deviations =
    Array.init (stop - start) (fun k ->
        let j = start + k in
        let d = abs_float (golden.Golden.values.(j) -. Ctx.trace_value ctx j) in
        if Float.is_nan d then infinity else d)
  in
  { result; start; stop; deviations }

let run_propagation ?fuel ?sink (golden : Golden.t) fault =
  check_fault golden fault;
  let ctx = Ctx.propagation ?fuel ?sink ~fault ~golden_statics:golden.Golden.statics () in
  finish_propagation golden fault ctx

let run_propagation_custom ?fuel ?sink (golden : Golden.t) ~(fault : Fault.t) ~corrupt =
  check_fault golden fault;
  let ctx =
    Ctx.propagation_custom ?fuel ?sink ~site:fault.Fault.site ~corrupt
      ~golden_statics:golden.Golden.statics ()
  in
  finish_propagation golden fault ctx
