module Study_ablation = Ftb_core.Study_ablation
module Context = Ftb_core.Context

let context =
  lazy
    (Context.prepare ~name:"cg"
       (Ftb_oracle.Cg.program { Ftb_oracle.Cg.grid = 3; iterations = 4; tolerance = 1e-4 }))

let result = lazy (Study_ablation.run ~trials:2 ~seed:5 (Lazy.force context))

let test_variant_grid_complete () =
  let r = Lazy.force result in
  Alcotest.(check int) "four variants" 4 (Array.length r.Study_ablation.variants);
  let combos =
    Array.to_list
      (Array.map (fun v -> (v.Study_ablation.bias, v.Study_ablation.filter)) r.Study_ablation.variants)
  in
  List.iter
    (fun combo ->
      Alcotest.(check bool) "combo present" true (List.mem combo combos))
    [ (true, true); (true, false); (false, true); (false, false) ]

let test_variant_sanity () =
  let r = Lazy.force result in
  Array.iter
    (fun (v : Study_ablation.variant) ->
      Alcotest.(check bool) "fraction in (0,1]" true
        (v.Study_ablation.sample_fraction_mean > 0.
        && v.Study_ablation.sample_fraction_mean <= 1.);
      Alcotest.(check bool) "error non-negative" true (v.Study_ablation.abs_error_mean >= 0.);
      Alcotest.(check bool) "rounds positive" true (v.Study_ablation.rounds_mean > 0.))
    r.Study_ablation.variants

let test_round_sweep () =
  let r = Lazy.force result in
  Alcotest.(check int) "three round points" 3 (Array.length r.Study_ablation.round_points);
  (* Bigger rounds cannot need more rounds. *)
  let p = r.Study_ablation.round_points in
  Alcotest.(check bool) "rounds decrease with round size" true
    (p.(Array.length p - 1).Study_ablation.rounds_mean <= p.(0).Study_ablation.rounds_mean)

let test_baseline_populated () =
  let r = Lazy.force result in
  let b = r.Study_ablation.baseline in
  Alcotest.(check int) "overall cost is the textbook 9604" 9604
    b.Ftb_core.Confidence.mc_samples_overall;
  Alcotest.(check bool) "profile cost scales with sites" true
    (b.Ftb_core.Confidence.mc_samples_full_profile
    = 9604 * Context.sites (Lazy.force context));
  Alcotest.(check bool) "boundary sample count positive" true
    (b.Ftb_core.Confidence.boundary_samples > 0);
  Alcotest.(check bool) "recall in [0,1]" true
    (b.Ftb_core.Confidence.boundary_recall >= 0. && b.Ftb_core.Confidence.boundary_recall <= 1.)

let test_render_ablation () =
  let s = Ftb_report.Render.ablation [ Lazy.force result ] in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun f -> Alcotest.(check bool) ("contains " ^ f) true (contains f s))
    [ "Ablation"; "bias on / filter on"; "round-size sweep"; "statistical-FI baseline" ];
  Alcotest.(check bool) "csv tables" true
    (List.length (Ftb_report.Render.csv_ablation [ Lazy.force result ]) = 2)

let test_invalid_trials () =
  match Study_ablation.run ~trials:0 ~seed:1 (Lazy.force context) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 trials accepted"

let suite =
  [
    Alcotest.test_case "variant grid complete" `Quick test_variant_grid_complete;
    Alcotest.test_case "variant sanity" `Quick test_variant_sanity;
    Alcotest.test_case "round sweep" `Quick test_round_sweep;
    Alcotest.test_case "baseline populated" `Quick test_baseline_populated;
    Alcotest.test_case "render ablation" `Quick test_render_ablation;
    Alcotest.test_case "invalid trials" `Quick test_invalid_trials;
  ]
