module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Sample_run = Ftb_inject.Sample_run

type t = { injected : float array; propagated : float array }

let significant_rel = 1e-8

let is_significant ~golden_value e =
  e > significant_rel *. Float.max (abs_float golden_value) 1e-16

(* Add one sample's information to [injected] and [propagated]. Every
   increment is 1., so the sums are exact integers and the order in which
   samples are added cannot change a bit of the result. *)
let add golden ~injected ~propagated (s : Sample_run.t) =
  let site = s.Sample_run.fault.Fault.site in
  if is_significant ~golden_value:(Golden.value golden site) s.Sample_run.injected_error
  then injected.(site) <- injected.(site) +. 1.;
  match s.Sample_run.propagation with
  | None -> ()
  | Some (sites, deviations) ->
      Array.iteri
        (fun i j ->
          (* The injection site itself is already counted. *)
          if j <> site && is_significant ~golden_value:(Golden.value golden j) deviations.(i)
          then propagated.(j) <- propagated.(j) +. 1.)
        sites

let collect golden samples =
  let n = Golden.sites golden in
  let injected = Array.make n 0. and propagated = Array.make n 0. in
  Array.iter (add golden ~injected ~propagated) samples;
  { injected; propagated }

let add_total golden total s = add golden ~injected:total ~propagated:total s

let total t = Array.map2 ( +. ) t.injected t.propagated
let potential_impact = total
