(* Shared test fixtures: tiny instrumented programs with hand-checkable
   error behaviour, and float assertion helpers. *)

module Ctx = Ftb_trace.Ctx
module Static = Ftb_trace.Static
module Program = Ftb_trace.Program

let close ?(eps = 1e-9) () = Alcotest.float eps

let check_close ?(eps = 1e-9) msg expected actual =
  Alcotest.check (Alcotest.float eps) msg expected actual

(* Linear chain: records the 4 inputs and 3 partial sums; output is the
   total. An error of magnitude e injected at any site shifts the output by
   exactly e, so every site's true fault-tolerance threshold is the
   program's tolerance. 7 dynamic instructions. *)
let linear_inputs = [| 1.0; 2.0; 3.0; 4.0 |]

let linear_program ?(tolerance = 0.5) () =
  let statics = Static.create_table () in
  let tag_load = Static.register statics ~phase:"linear.load" ~label:"x[i]" in
  let tag_sum = Static.register statics ~phase:"linear.sum" ~label:"s += x[i]" in
  let body ctx =
    let x = Array.map (fun v -> Ctx.record ctx ~tag:tag_load v) linear_inputs in
    let s1 = Ctx.record ctx ~tag:tag_sum (x.(0) +. x.(1)) in
    let s2 = Ctx.record ctx ~tag:tag_sum (s1 +. x.(2)) in
    let s3 = Ctx.record ctx ~tag:tag_sum (s2 +. x.(3)) in
    [| s3 |]
  in
  Program.make ~name:"linear" ~description:"4-term sum, unit error gain" ~tolerance
    ~statics body

let linear_sites = 7

(* Non-monotonic toy: output is y = x*(x-2)/2 evaluated at x = 2, so the
   golden output is 0 and an error d at x produces |d*(2+d)|/2 at the
   output. Bit flips of 2.0 include x' ~ 0 (top exponent bit cleared,
   injected error ~2, output error ~0: masked) while the top mantissa bit
   gives x' = 2.5 (injected error 0.5, output error 0.625: SDC) — a site
   where a larger error is masked while a smaller one corrupts. *)
let nonmonotonic_program ?(tolerance = 0.5) () =
  let statics = Static.create_table () in
  let tag_x = Static.register statics ~phase:"nm.load" ~label:"x" in
  let tag_y = Static.register statics ~phase:"nm.eval" ~label:"y = x*(x-2)/2" in
  let body ctx =
    let x = Ctx.record ctx ~tag:tag_x 2. in
    let y = Ctx.record ctx ~tag:tag_y (x *. (x -. 2.) /. 2.) in
    [| y |]
  in
  Program.make ~name:"nonmonotonic" ~description:"x*(x-2)/2 at x=2" ~tolerance ~statics body

(* Branching toy: control flow depends on the recorded value, so a large
   injected error makes the faulty run execute a different static
   instruction sequence (divergence). *)
let branching_program ?(tolerance = 10.) () =
  let statics = Static.create_table () in
  let tag_x = Static.register statics ~phase:"br.load" ~label:"x" in
  let tag_small = Static.register statics ~phase:"br.small" ~label:"y = x + 1" in
  let tag_big = Static.register statics ~phase:"br.big" ~label:"y = x * 2" in
  let tag_out = Static.register statics ~phase:"br.out" ~label:"out" in
  let body ctx =
    let x = Ctx.record ctx ~tag:tag_x 1. in
    let y =
      if x < 100. then Ctx.record ctx ~tag:tag_small (x +. 1.)
      else Ctx.record ctx ~tag:tag_big (x *. 2.)
    in
    [| Ctx.record ctx ~tag:tag_out y |]
  in
  Program.make ~name:"branching" ~description:"data-dependent branch" ~tolerance ~statics
    body

(* A crashing toy: guards its single value, so any flip to a non-finite
   value crashes. *)
let guarded_program ?(tolerance = 0.5) () =
  let statics = Static.create_table () in
  let tag_x = Static.register statics ~phase:"g.load" ~label:"x" in
  let body ctx =
    let x = Ctx.record ctx ~tag:tag_x 1.5 in
    let x = Ctx.guard_finite ctx "g.check" x in
    [| x |]
  in
  Program.make ~name:"guarded" ~description:"guarded single value" ~tolerance ~statics body

(* Diverging toy: multiplies x by a recorded factor until it drops below 1.
   The golden factor 0.5 converges in 7 iterations, but flips of the factor
   (e.g. bit 52: 0.5 -> 1.0, or bit 62: 0.5 -> huge -> x saturates at +inf)
   keep [x >= 1.] true forever — the loop only terminates under a fuel
   watchdog. Never run its campaign without [~fuel]. *)
let diverging_program ?(tolerance = 0.5) () =
  let statics = Static.create_table () in
  let tag_f = Static.register statics ~phase:"div.load" ~label:"factor" in
  let tag_x = Static.register statics ~phase:"div.iter" ~label:"x *= factor" in
  let body ctx =
    let factor = Ctx.record ctx ~tag:tag_f 0.5 in
    let x = ref 100. in
    while !x >= 1. do
      x := Ctx.record ctx ~tag:tag_x (!x *. factor)
    done;
    [| !x |]
  in
  Program.make ~name:"diverging" ~description:"loop until convergence" ~tolerance ~statics
    body

let qcheck_to_alcotest = QCheck_alcotest.to_alcotest

(* One bit-flip-64 propagation experiment (dense case index). *)
let run_case golden case =
  Ftb_inject.Sample_run.run_case_model Ftb_inject.Models.default_spec golden case

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

(* Two samples agree bit for bit: fault, outcome, crash reason, and the
   IEEE images of the injected error and every propagated deviation. *)
let sample_bits_equal (a : Ftb_inject.Sample_run.t) (b : Ftb_inject.Sample_run.t) =
  let bits f = Int64.bits_of_float f in
  Ftb_trace.Fault.equal a.Ftb_inject.Sample_run.fault b.Ftb_inject.Sample_run.fault
  && Ftb_trace.Runner.outcome_equal a.Ftb_inject.Sample_run.outcome
       b.Ftb_inject.Sample_run.outcome
  && a.Ftb_inject.Sample_run.crash_reason = b.Ftb_inject.Sample_run.crash_reason
  && Int64.equal
       (bits a.Ftb_inject.Sample_run.injected_error)
       (bits b.Ftb_inject.Sample_run.injected_error)
  &&
  match (a.Ftb_inject.Sample_run.propagation, b.Ftb_inject.Sample_run.propagation) with
  | None, None -> true
  | Some (sa, da), Some (sb, db) ->
      sa = sb
      && Array.length da = Array.length db
      && Array.for_all2 (fun x y -> Int64.equal (bits x) (bits y)) da db
  | Some _, None | None, Some _ -> false

(* A finished exhaustive campaign through its durable form: a complete
   checkpoint, saved and loaded back as a campaign result. *)
let save_complete ~path (gt : Ftb_inject.Ground_truth.t) =
  let module Checkpoint = Ftb_campaign.Checkpoint in
  let cp = Checkpoint.create gt.Ftb_inject.Ground_truth.golden ~shard_size:4096 in
  Bytes.blit gt.Ftb_inject.Ground_truth.outcomes 0 cp.Checkpoint.outcomes 0
    (Bytes.length cp.Checkpoint.outcomes);
  Array.fill cp.Checkpoint.completed 0 (Array.length cp.Checkpoint.completed) true;
  Checkpoint.save ~path cp

let load_complete ~path golden =
  let module Checkpoint = Ftb_campaign.Checkpoint in
  Checkpoint.ground_truth golden (Checkpoint.load ~path ~shard_size:4096 golden)

(* CRC-32 (IEEE, reflected) one byte at a time: the loop every durable
   format was first written with, kept as the oracle of
   [Ftb_inject.Persist.crc32]. *)
let crc32_bytewise s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let c = ref 0xFFFFFFFF in
  String.iter (fun ch -> c := table.((!c lxor Char.code ch) land 0xFF) lxor (!c lsr 8)) s;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
