module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run

type point = {
  tolerance : float;
  golden_sdc : float;
  golden_masked : float;
  golden_crash : float;
  precision : float;
  recall : float;
  uncertainty : float;
  non_monotonic_fraction : float;
}

type result = { name : string; fraction : float; points : point array }

let run ?(fraction = 0.02) ?(seed = 42) ~name ~tolerances make =
  if Array.length tolerances = 0 then
    invalid_arg "Study_tolerance.run: empty tolerance sweep";
  Array.iter
    (fun t ->
      if not (t > 0. && Float.is_finite t) then
        invalid_arg "Study_tolerance.run: tolerances must be positive and finite")
    tolerances;
  let rng = Ftb_util.Rng.create ~seed in
  let points =
    Array.map
      (fun tolerance ->
        let program = make ~tolerance in
        let golden = Golden.run program in
        let gt = Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden in
        let cases = Sample_run.draw_uniform (Ftb_util.Rng.split rng) golden ~fraction in
        let samples = Sample_run.run_cases golden cases in
        let boundary = Boundary.infer ~filter:true ~sites:(Golden.sites golden) samples in
        let evaluation = Metrics.evaluate boundary gt in
        let flags = Study_exhaustive.non_monotonic_sites gt in
        let non_monotonic =
          Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 flags
        in
        {
          tolerance;
          golden_sdc = Ground_truth.sdc_ratio gt;
          golden_masked = Ground_truth.masked_ratio gt;
          golden_crash = Ground_truth.crash_ratio gt;
          precision = evaluation.Metrics.precision;
          recall = evaluation.Metrics.recall;
          uncertainty = Metrics.uncertainty boundary golden samples;
          non_monotonic_fraction =
            float_of_int non_monotonic /. float_of_int (Array.length flags);
        })
      tolerances
  in
  { name; fraction; points }
