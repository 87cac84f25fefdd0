module Ctx = Ftb_trace.Ctx
module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Program = Ftb_trace.Program
module Runner = Ftb_trace.Runner

(* Dependent-cone fast path. A program may carry a cone plan
   ([Program.cone], built by [Ftb_ir.Pipeline.to_program]): per site, the
   outcomes of all the site's cases are computed from the corrupted values
   and precomputed golden dataflow alone — no prefix run, no suffix
   replay. The plan is fetched once per executor call and used only when
   it covers exactly this golden run's site space.

   Fuel. A plan declines every site whose cone feeds a float branch, and
   integer state cannot be corrupted, so a covered case follows the golden
   control path: it records exactly [Golden.sites golden] dynamic
   instructions, or fewer when a guard crashes it first. The watchdog in
   [Ctx.record] fires only on record [fuel + 1], so cone outcomes equal
   full replay whenever [fuel >= Golden.sites golden] — the daemon's
   default budget included. Below that the watchdog can fire inside the
   replay, and only real replay keeps the step count. A site the plan
   declines takes the prefix-snapshot path below. Outcome bytes are
   bit-identical either way — enforced by the differential tests and the
   @ir-smoke gate. *)
let cone_plan ?fuel golden =
  let sites = Golden.sites golden in
  match (fuel, golden.Golden.program.Program.cone) with
  | _, None -> None
  | Some fuel, Some _ when fuel < sites -> None
  | _, Some force -> (
      match force () with
      | Some plan when plan.Program.cone_sites = sites -> Some plan
      | Some _ | None -> None)

let byte_of_cone_outcome = function
  | Program.Cone_masked -> '\000'
  | Program.Cone_sdc -> '\001'
  | Program.Cone_crash reason -> Ground_truth.crash_byte reason

(* Cases [lo, hi) one full contained run each, written from [buf.[pos]]. *)
let per_case ?fuel spec golden buf ~pos ~lo ~hi =
  for case = lo to hi - 1 do
    Bytes.set buf (pos + case - lo) (Ground_truth.case_byte_model ?fuel spec golden case)
  done

(* The [width] cases of one site, into [buf.[pos..pos+width-1]].

   Cone replay first: when the plan accepts the site, one lane-runner
   call classifies all [width] cases (lanes) at once.

   Otherwise prefix-snapshot batching: the cases of a site share the exact
   same injection-free prefix — every dynamic instruction before the site
   produces its golden value whatever the corruption will be. So instead
   of [width] full runs, run the prefix once under a counting context,
   snapshot the interpreter at the injection point, and replay only the
   suffix per case. Every model's corruption is a pure function of the
   golden value and the dense case — a stochastic model re-derives its
   RNG from (seed, case) — so every model batches and takes the cone
   fast path. Programs without the [resumable] capability (hand-written
   closure kernels) fall back to full re-execution: same bytes, just
   without the savings. *)
let site_into ?fuel ~plan spec golden ~site buf ~pos =
  let width = Models.spec_width spec in
  let first = site * width in
  let corrupt case = Models.case_corrupt spec ~case:(first + case) in
  let fallback () = per_case ?fuel spec golden buf ~pos ~lo:first ~hi:(first + width) in
  let snapshot () =
    match golden.Golden.program.Program.resumable with
    | None -> fallback ()
    | Some resumable -> (
        let ctx = Ctx.counting ?fuel () in
        match resumable ctx ~stop_at:site with
        | exception Ctx.Crash { reason; _ } ->
            (* The injection-free prefix crashed (in practice only the
               fuel watchdog can do that — the golden run is clean),
               strictly before the injection point: every case follows
               the identical path to the identical crash. *)
            Bytes.fill buf pos width (Ground_truth.crash_byte reason)
        | exception Out_of_memory -> raise Out_of_memory
        | exception _ ->
            (* Campaign containment, mirroring
               [Runner.run_outcome_custom_contained]: a non-cooperative
               exception inside the body is an exception crash for every
               case. *)
            Bytes.fill buf pos width (Ground_truth.crash_byte Ctx.Exception_raised)
        | Program.Completed _ ->
            (* A deterministic program cannot finish before issuing
               [site < sites] dynamic instructions; if it somehow does,
               trust the per-case path over the snapshot machinery. *)
            fallback ()
        | Program.Paused resume ->
            let snap = Ctx.snapshot ctx in
            let fault = Fault.make ~site ~bit:0 in
            for case = 0 to width - 1 do
              let ctx = Ctx.resume_custom snap ~site ~corrupt:(corrupt case) in
              let result = Runner.outcome_of_run_contained golden fault ctx resume in
              Bytes.set buf (pos + case) (Ground_truth.byte_of_result result)
            done)
  in
  match Option.bind plan (fun plan -> plan.Program.cone_lanes ~site) with
  | None -> snapshot ()
  | Some run -> (
      let out = Array.make width Program.Cone_masked in
      match run corrupt out with
      | () -> Array.iteri (fun case o -> Bytes.set buf (pos + case) (byte_of_cone_outcome o)) out
      | exception Out_of_memory -> raise Out_of_memory
      | exception _ ->
          (* Containment: a lane batch that raises (a corruption function
             that throws) hands the whole site to the snapshot tier, which
             contains each case on its own. *)
          snapshot ())

let range_into_model ?fuel (spec : Models.spec) golden ~lo ~hi buf ~off =
  let width = Models.spec_width spec in
  let total = Models.total_cases spec ~sites:(Golden.sites golden) in
  if lo < 0 || hi < lo || hi > total then
    invalid_arg "Executor.range_into_model: case range out of bounds";
  if off < 0 || off + (hi - lo) > Bytes.length buf then
    invalid_arg "Executor.range_into_model: buffer too small";
  (* Whole sites inside [lo, hi) are batched; ragged edges (shard bounds
     not aligned to the model's width) run per-case. *)
  let plan = cone_plan ?fuel golden in
  let first_whole = (lo + width - 1) / width * width in
  let last_whole = hi / width * width in
  if first_whole >= last_whole then per_case ?fuel spec golden buf ~pos:off ~lo ~hi
  else begin
    per_case ?fuel spec golden buf ~pos:off ~lo ~hi:first_whole;
    for site = first_whole / width to (last_whole / width) - 1 do
      site_into ?fuel ~plan spec golden ~site buf ~pos:(off + (site * width) - lo)
    done;
    per_case ?fuel spec golden buf ~pos:(off + last_whole - lo) ~lo:last_whole ~hi
  end

let ground_truth_model ?pool ?domains ?fuel (spec : Models.spec) golden =
  let want =
    match domains with Some d -> d | None -> Parallel.default_domains ()
  in
  if want <= 0 then invalid_arg "Executor.ground_truth_model: domains must be positive";
  let width = Models.spec_width spec in
  let sites = Golden.sites golden in
  let outcomes = Bytes.create (sites * width) in
  let plan = cone_plan ?fuel golden in
  let run_sites lo hi =
    for site = lo to hi - 1 do
      site_into ?fuel ~plan spec golden ~site outcomes ~pos:(site * width)
    done
  in
  (if want = 1 && pool = None then run_sites 0 sites
   else begin
     let pool =
       match pool with
       | Some p -> p
       | None -> Parallel.Pool.global ~domains:want ()
     in
     (* Work items are sites. Without a cone plan they are stolen one at
        a time: one unlucky site that diverges into fuel-bound suffixes
        does not stall a whole chunk. A cone-tier site costs about as
        much as claiming it, so under a plan the pool's default chunks
        apply (a declined site's snapshot tier still balances across
        chunks). *)
     let chunk = if plan = None then Some 1 else None in
     Parallel.Pool.run pool
       ~participants:(min want (Parallel.Pool.domains pool))
       ?chunk ~total:sites run_sites
   end);
  Ground_truth.of_outcomes ~width golden outcomes
