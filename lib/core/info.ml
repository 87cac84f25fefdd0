module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Sample_run = Ftb_inject.Sample_run

type t = { injected : float array; propagated : float array }

let significant_rel = 1e-8

let is_significant ~golden_value e =
  e > significant_rel *. Float.max (abs_float golden_value) 1e-16

let significance_floors golden =
  Array.map (fun v -> significant_rel *. Float.max (abs_float v) 1e-16) golden.Golden.values

(* Add one sample's information to [injected] and [propagated]: a
   deviation at site [j] is significant when it exceeds [floors.(j)],
   which is [is_significant]'s right-hand side, computed once per site.
   Every increment is 1., so the sums are exact integers and the order in
   which samples are added cannot change a bit of the result. *)
let add ~floors ~injected ~propagated (s : Sample_run.t) =
  let site = s.Sample_run.fault.Fault.site in
  if s.Sample_run.injected_error > floors.(site) then injected.(site) <- injected.(site) +. 1.;
  match s.Sample_run.propagation with
  | None -> ()
  | Some (sites, deviations) ->
      for i = 0 to Array.length sites - 1 do
        let j = sites.(i) in
        (* The injection site itself is already counted. *)
        if j <> site && deviations.(i) > floors.(j) then propagated.(j) <- propagated.(j) +. 1.
      done

let collect golden samples =
  let n = Golden.sites golden in
  let floors = significance_floors golden in
  let injected = Array.make n 0. and propagated = Array.make n 0. in
  Array.iter (add ~floors ~injected ~propagated) samples;
  { injected; propagated }

let add_total ~floors total s = add ~floors ~injected:total ~propagated:total s

let total t = Array.map2 ( +. ) t.injected t.propagated
let potential_impact = total
