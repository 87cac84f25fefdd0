module Fault = Ftb_trace.Fault
module Runner = Ftb_trace.Runner
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run

type t = { thresholds : float array; support : int array }

let create ~sites =
  if sites <= 0 then invalid_arg "Boundary.create: sites must be positive";
  { thresholds = Array.make sites 0.; support = Array.make sites 0 }

let sites t = Array.length t.thresholds
let threshold t i = t.thresholds.(i)
let copy t = { thresholds = Array.copy t.thresholds; support = Array.copy t.support }

let check_pairs what t (js, ds) =
  let n = sites t in
  if Array.length js <> Array.length ds || Array.exists (fun j -> j < 0 || j >= n) js then
    invalid_arg (what ^ ": coverage out of range")

let add_masked_propagation ?min_sdc_error t ((js, ds) as pairs) =
  check_pairs "Boundary.add_masked_propagation" t pairs;
  Array.iteri
    (fun i j ->
      let d = ds.(i) in
      let accepted =
        d > 0.
        && (match min_sdc_error with None -> true | Some floor -> d < floor.(j))
      in
      if accepted then begin
        if d > t.thresholds.(j) then t.thresholds.(j) <- d;
        t.support.(j) <- t.support.(j) + 1
      end)
    js

let min_sdc_errors ~sites samples =
  let floor = Array.make sites infinity in
  Array.iter
    (fun (s : Sample_run.t) ->
      match s.Sample_run.outcome with
      | Runner.Sdc ->
          let site = s.Sample_run.fault.Fault.site in
          if s.Sample_run.injected_error < floor.(site) then
            floor.(site) <- s.Sample_run.injected_error
      | Runner.Masked | Runner.Crash -> ())
    samples;
  floor

let infer ?(filter = false) ~sites:n samples =
  let t = create ~sites:n in
  let min_sdc_error = if filter then Some (min_sdc_errors ~sites:n samples) else None in
  Array.iter
    (fun (s : Sample_run.t) ->
      Option.iter (add_masked_propagation ?min_sdc_error t) s.Sample_run.propagation)
    samples;
  t

(* The incremental form of [infer]. A site's SDC floor only falls as
   samples arrive, so a deviation the filter rejects once stays rejected:
   per site, only the deviations below the current floor are kept. A
   batch lowers some floors, adds its accepted deviations, and rebuilds
   only the sites whose floor fell from what they kept. Max and count do
   not depend on order, so the result is [infer] over every sample added,
   bit for bit. *)
type accumulator = {
  boundary : t;
  floor : float array option;  (* per-site SDC floor, when filtering *)
  kept : float array array;  (* per site: accepted deviations, [kept_n] of them *)
  kept_n : int array;
  fell : Bytes.t;  (* sites whose floor fell in the batch being added *)
}

let accumulator ~filter ~sites =
  let boundary = create ~sites in
  {
    boundary;
    floor = (if filter then Some (Array.make sites infinity) else None);
    kept = Array.make (if filter then sites else 0) [||];
    kept_n = Array.make (if filter then sites else 0) 0;
    fell = Bytes.make (if filter then sites else 0) '\000';
  }

(* Inlined into the fold's loop: a float argument to a call is boxed,
   an allocation per folded pair. *)
let[@inline] keep b j d =
  let n = b.kept_n.(j) in
  if n = Array.length b.kept.(j) then begin
    let grown = Array.make (max 4 (2 * n)) 0. in
    Array.blit b.kept.(j) 0 grown 0 n;
    b.kept.(j) <- grown
  end;
  b.kept.(j).(n) <- d;
  b.kept_n.(j) <- n + 1

(* Site [j]'s floor fell to [floor]: drop the kept deviations at or above
   it, and re-derive the site from the rest. *)
let rebuild b floor j =
  let t = b.boundary in
  let kept = b.kept.(j) and below = ref 0 and best = ref 0. in
  for i = 0 to b.kept_n.(j) - 1 do
    let d = kept.(i) in
    if d < floor then begin
      kept.(!below) <- d;
      incr below;
      if d > !best then best := d
    end
  done;
  b.kept_n.(j) <- !below;
  t.thresholds.(j) <- !best;
  t.support.(j) <- !below

(* One pass over the batch, one loop per sample's pairs. A floor that
   falls part-way through the batch is handled by the rebuild at the end,
   which re-derives the site from what it kept, so a site's deviations
   may be folded before the sample that lowers its floor. *)
let accumulate b samples =
  let t = b.boundary in
  let n = sites t in
  let fell = ref [] in
  for si = 0 to Array.length samples - 1 do
    let s = samples.(si) in
    (match (b.floor, s.Sample_run.outcome) with
    | Some floor, Runner.Sdc ->
        let j = s.Sample_run.fault.Fault.site in
        if s.Sample_run.injected_error < floor.(j) then begin
          floor.(j) <- s.Sample_run.injected_error;
          if Bytes.get b.fell j = '\000' then begin
            Bytes.set b.fell j '\001';
            fell := j :: !fell
          end
        end
    | _, (Runner.Sdc | Runner.Masked | Runner.Crash) -> ());
    match s.Sample_run.propagation with
    | None -> ()
    | Some (js, ds) -> (
        let m = Array.length js in
        (* Sites ascend (Sample_run's invariant), so the ends bound them;
           the checked accesses below catch any other disorder. *)
        if Array.length ds <> m || (m > 0 && (js.(0) < 0 || js.(m - 1) >= n)) then
          invalid_arg "Boundary.accumulate: coverage out of range";
        match b.floor with
        | None ->
            for i = 0 to m - 1 do
              let j = js.(i) and d = ds.(i) in
              if d > 0. then begin
                if d > t.thresholds.(j) then t.thresholds.(j) <- d;
                t.support.(j) <- t.support.(j) + 1
              end
            done
        | Some floor ->
            for i = 0 to m - 1 do
              let j = js.(i) and d = ds.(i) in
              if d > 0. && d < floor.(j) then begin
                keep b j d;
                if Bytes.get b.fell j = '\000' then begin
                  if d > t.thresholds.(j) then t.thresholds.(j) <- d;
                  t.support.(j) <- t.support.(j) + 1
                end
              end
            done)
  done;
  match b.floor with
  | None -> ()
  | Some floor ->
      List.iter
        (fun j ->
          Bytes.set b.fell j '\000';
          rebuild b floor.(j) j)
        !fell

let accumulated b = b.boundary

let exhaustive gt =
  let golden = gt.Ground_truth.golden in
  let n = Ftb_trace.Golden.sites golden in
  (* Per-site case width of the campaign behind [gt] (64 for the paper's
     bit-flip model); deriving it keeps the brute-force boundary correct
     for narrower discrete fault models. *)
  let width = Ground_truth.cases gt / n in
  let t = create ~sites:n in
  for site = 0 to n - 1 do
    let min_sdc = ref infinity in
    for bit = 0 to width - 1 do
      let fault = Fault.make ~site ~bit in
      if Ground_truth.outcome gt ((site * width) + bit) = Runner.Sdc then begin
        let e = Ground_truth.injected_error golden fault in
        if e < !min_sdc then min_sdc := e
      end
    done;
    let best = ref 0. and support = ref 0 in
    for bit = 0 to width - 1 do
      let fault = Fault.make ~site ~bit in
      if Ground_truth.outcome gt ((site * width) + bit) = Runner.Masked then begin
        let e = Ground_truth.injected_error golden fault in
        if e < !min_sdc then begin
          incr support;
          if e > !best then best := e
        end
      end
    done;
    t.thresholds.(site) <- !best;
    t.support.(site) <- !support
  done;
  t
