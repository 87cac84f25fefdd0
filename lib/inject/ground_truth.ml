module Ctx = Ftb_trace.Ctx
module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner

type t = { golden : Golden.t; outcomes : Bytes.t }

type reason_counts = { nan : int; inf : int; exn : int; fuel : int }

(* Dense outcome-byte encoding, shared by checkpoints, profiles and
   sample blobs: '\000' masked, '\001' SDC, and the crash taxonomy's four
   reason-carrying bytes '\002'..'\005'. *)
let crash_byte = function
  | Ctx.Exception_raised -> '\002'
  | Ctx.Nan_value -> '\003'
  | Ctx.Inf_value -> '\004'
  | Ctx.Fuel_exhausted -> '\005'

let byte_of_result (r : Runner.result) =
  match (r.Runner.outcome, r.Runner.crash_reason) with
  | Runner.Masked, _ -> '\000'
  | Runner.Sdc, _ -> '\001'
  | Runner.Crash, Some reason -> crash_byte reason
  | Runner.Crash, None -> '\002'

let outcome_of_byte = function
  | '\000' -> Runner.Masked
  | '\001' -> Runner.Sdc
  | '\002' | '\003' | '\004' | '\005' -> Runner.Crash
  | c -> invalid_arg (Printf.sprintf "Ground_truth: corrupt outcome byte %d" (Char.code c))

let crash_reason_of_byte = function
  | '\002' -> Some Ctx.Exception_raised
  | '\003' -> Some Ctx.Nan_value
  | '\004' -> Some Ctx.Inf_value
  | '\005' -> Some Ctx.Fuel_exhausted
  | _ -> None

let case_byte_model ?fuel (spec : Models.spec) golden case =
  byte_of_result
    (Runner.run_outcome_custom_contained ?fuel golden
       ~site:(case / Models.spec_width spec)
       ~corrupt:(Models.case_corrupt spec ~case))

let of_outcomes ?(width = Ftb_util.Bits.bits_per_double) golden outcomes =
  let total = Golden.sites golden * width in
  if Bytes.length outcomes <> total then
    invalid_arg
      (Printf.sprintf "Ground_truth.of_outcomes: expected %d outcome bytes, got %d" total
         (Bytes.length outcomes));
  Bytes.iter (fun b -> ignore (outcome_of_byte b)) outcomes;
  { golden; outcomes }

let run ?fuel golden =
  let outcomes =
    Bytes.init (Golden.cases golden) (case_byte_model ?fuel Models.default_spec golden)
  in
  { golden; outcomes }

let outcome t case = outcome_of_byte (Bytes.get t.outcomes case)
let crash_reason t case = crash_reason_of_byte (Bytes.get t.outcomes case)
let outcome_of_fault t fault = outcome t (Fault.to_case fault)
let cases t = Bytes.length t.outcomes

let injected_error golden (fault : Fault.t) =
  let v = Golden.value golden fault.Fault.site in
  let err = Ftb_util.Bits.error_of_flip ~bit:fault.Fault.bit v in
  if Float.is_nan err then infinity else err

let injected_error_model (spec : Models.spec) golden ~case =
  let v = Golden.value golden (case / Models.spec_width spec) in
  let err = abs_float (Models.case_corrupt spec ~case v -. v) in
  if Float.is_nan err then infinity else err

let counts t ~masked ~sdc ~crash =
  Bytes.iter
    (fun b ->
      match outcome_of_byte b with
      | Runner.Masked -> incr masked
      | Runner.Sdc -> incr sdc
      | Runner.Crash -> incr crash)
    t.outcomes

let crash_counts t =
  let nan = ref 0 and inf = ref 0 and exn = ref 0 and fuel = ref 0 in
  Bytes.iter
    (fun b ->
      match crash_reason_of_byte b with
      | Some Ctx.Nan_value -> incr nan
      | Some Ctx.Inf_value -> incr inf
      | Some Ctx.Exception_raised -> incr exn
      | Some Ctx.Fuel_exhausted -> incr fuel
      | None -> ())
    t.outcomes;
  { nan = !nan; inf = !inf; exn = !exn; fuel = !fuel }

let ratio_of count t = float_of_int count /. float_of_int (cases t)

let global_counts t =
  let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
  counts t ~masked ~sdc ~crash;
  (!masked, !sdc, !crash)

let sdc_ratio t =
  let _, sdc, _ = global_counts t in
  ratio_of sdc t

let masked_ratio t =
  let masked, _, _ = global_counts t in
  ratio_of masked t

let crash_ratio t =
  let _, _, crash = global_counts t in
  ratio_of crash t

(* Per-site aggregation derives the case width from the stored bytes, so
   it holds for any fault model's case space (64 for the paper's). *)
let site_width t = cases t / Golden.sites t.golden

let site_sdc_ratio t =
  let sites = Golden.sites t.golden in
  let width = site_width t in
  Array.init sites (fun site ->
      let sdc = ref 0 in
      for case = 0 to width - 1 do
        if outcome t ((site * width) + case) = Runner.Sdc then incr sdc
      done;
      float_of_int !sdc /. float_of_int width)

let site_masked_count t =
  let sites = Golden.sites t.golden in
  let width = site_width t in
  Array.init sites (fun site ->
      let masked = ref 0 in
      for case = 0 to width - 1 do
        if outcome t ((site * width) + case) = Runner.Masked then incr masked
      done;
      !masked)
