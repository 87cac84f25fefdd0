type t = {
  name : string;
  program : Ftb_trace.Program.t;
  golden : Ftb_trace.Golden.t;
  ground_truth : Ftb_inject.Ground_truth.t;
}

let prepare ~name program =
  let golden = Ftb_trace.Golden.run program in
  let ground_truth =
    Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden
  in
  { name; program; golden; ground_truth }

let golden_sdc_ratio t = Ftb_inject.Ground_truth.sdc_ratio t.ground_truth
let sites t = Ftb_trace.Golden.sites t.golden
let cases t = Ftb_trace.Golden.cases t.golden
