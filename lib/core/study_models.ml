module Models = Ftb_inject.Models
module Ground_truth = Ftb_inject.Ground_truth
module Executor = Ftb_inject.Executor

type row = {
  model : Models.spec;
  cases : int;
  masked_ratio : float;
  sdc_ratio : float;
  crash_ratio : float;
  crash_breakdown : Ground_truth.reason_counts;
}

type result = { name : string; sites : int; rows : row list }

let row_of_ground_truth model gt =
  {
    model;
    cases = Ground_truth.cases gt;
    masked_ratio = Ground_truth.masked_ratio gt;
    sdc_ratio = Ground_truth.sdc_ratio gt;
    crash_ratio = Ground_truth.crash_ratio gt;
    crash_breakdown = Ground_truth.crash_counts gt;
  }

let default_specs ~seed =
  List.map
    (fun model -> { Models.model; seed })
    (Models.all_discrete @ [ Models.Random_value { lo = -1e3; hi = 1e3 } ])

let run ?pool ?domains ?fuel ~name golden specs =
  let rows =
    List.map
      (fun spec ->
        row_of_ground_truth spec
          (Executor.ground_truth_model ?pool ?domains ?fuel spec golden))
      specs
  in
  { name; sites = Ftb_trace.Golden.sites golden; rows }

let sample ?fuel ~samples_per_site rng ~name golden specs =
  if samples_per_site <= 0 then
    invalid_arg "Study_models.sample: samples_per_site must be positive";
  let sites = Ftb_trace.Golden.sites golden in
  let row spec =
    let width = Models.spec_width spec in
    let k = min samples_per_site width in
    let outcomes = Bytes.create (sites * k) in
    for site = 0 to sites - 1 do
      let locals =
        if k = width then Array.init width Fun.id
        else Ftb_util.Rng.sample_without_replacement rng ~n:width ~k
      in
      Array.iteri
        (fun i local ->
          Bytes.set outcomes ((site * k) + i)
            (Ground_truth.case_byte_model ?fuel spec golden ((site * width) + local)))
        locals
    done;
    (* [k] bytes per site: the sample is itself a dense outcome table. *)
    row_of_ground_truth spec (Ground_truth.of_outcomes ~width:k golden outcomes)
  in
  { name; sites; rows = List.map row specs }
