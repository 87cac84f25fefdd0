module Info = Ftb_core.Info
module Sample_run = Ftb_inject.Sample_run
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let test_is_significant () =
  Alcotest.(check bool) "large deviation significant" true
    (Info.is_significant ~golden_value:1. 1e-3);
  Alcotest.(check bool) "tiny deviation insignificant" false
    (Info.is_significant ~golden_value:1. 1e-12);
  (* Near-zero golden values use the absolute floor. *)
  Alcotest.(check bool) "denormal deviation on a zero site insignificant" false
    (Info.is_significant ~golden_value:0. 1e-30);
  Alcotest.(check bool) "visible deviation on a zero site significant" true
    (Info.is_significant ~golden_value:0. 1e-3)

let test_collect_counts_injection_and_propagation () =
  let g = Lazy.force golden in
  (* Sign flip at site 1 is SDC (no propagation data kept) but still counts
     as one significant injection. A small masked flip at site 0 counts as
     an injection at 0 plus propagations at the downstream sites it
     perturbs. *)
  let samples =
    Array.map
      (fun (site, bit) -> Helpers.run_case g (Fault.to_case (Fault.make ~site ~bit)))
      [| (1, 63); (0, 30) |]
  in
  let info = Info.collect g samples in
  Helpers.check_close "sdc injection counted" 1. info.Info.injected.(1);
  Helpers.check_close "masked injection counted" 1. info.Info.injected.(0);
  Helpers.check_close "injection site not double-counted as propagation" 0.
    info.Info.propagated.(0);
  (* Site 4 = x0 + x1 receives the site-0 perturbation with unit gain. *)
  Alcotest.(check bool) "downstream site received propagation" true
    (info.Info.propagated.(4) > 0.)

let test_insignificant_injection_not_counted () =
  let g = Lazy.force golden in
  (* Bit 0 of x0 = 1.0 injects ~1e-16 relative error: below the cut-off. *)
  let samples = [| Helpers.run_case g (Fault.to_case (Fault.make ~site:0 ~bit:0)) |] in
  let info = Info.collect g samples in
  Helpers.check_close "no significant injection" 0. info.Info.injected.(0)

let test_total_and_alias () =
  let g = Lazy.force golden in
  let samples = [| Helpers.run_case g (Fault.to_case (Fault.make ~site:0 ~bit:30)) |] in
  let info = Info.collect g samples in
  let total = Info.total info in
  Array.iteri
    (fun i t ->
      Helpers.check_close "total = injected + propagated"
        (info.Info.injected.(i) +. info.Info.propagated.(i))
        t)
    total;
  Alcotest.(check (array (Helpers.close ()))) "potential_impact aliases total" total
    (Info.potential_impact info)

let test_add_total_matches_collect () =
  (* Folding samples one at a time, in any order, gives the bits of
     [total (collect ...)]: every count is an exact integer sum. *)
  let g = Lazy.force golden in
  let samples =
    Array.init 64 (fun bit ->
        Helpers.run_case g (Fault.to_case (Fault.make ~site:(bit mod 3) ~bit)))
  in
  let expected = Info.total (Info.collect g samples) in
  let floors = Info.significance_floors g in
  (* The floors are [is_significant]'s cut-off, site by site. *)
  Array.iteri
    (fun j floor ->
      let golden_value = Golden.value g j in
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Printf.sprintf "site %d: %h significant" j e)
            (Info.is_significant ~golden_value e)
            (e > floor))
        [ 0.; floor; Float.succ floor; Float.pred floor; 1.; infinity ])
    floors;
  List.iter
    (fun order ->
      let total = Array.make (Array.length expected) 0. in
      Array.iter (Info.add_total ~floors total) order;
      Array.iteri
        (fun i e ->
          Alcotest.(check int64)
            (Printf.sprintf "site %d bits" i)
            (Int64.bits_of_float e)
            (Int64.bits_of_float total.(i)))
        expected)
    [ samples; Array.of_list (List.rev (Array.to_list samples)) ]

let test_significant_rel_value () =
  Helpers.check_close "cut-off is 1e-8" 1e-8 Info.significant_rel

let suite =
  [
    Alcotest.test_case "is_significant" `Quick test_is_significant;
    Alcotest.test_case "collect counts injections and propagations" `Quick
      test_collect_counts_injection_and_propagation;
    Alcotest.test_case "insignificant injection not counted" `Quick
      test_insignificant_injection_not_counted;
    Alcotest.test_case "total and potential_impact" `Quick test_total_and_alias;
    Alcotest.test_case "significant_rel" `Quick test_significant_rel_value;
    Alcotest.test_case "add_total folds to total" `Quick test_add_total_matches_collect;
  ]
