module Study_tolerance = Ftb_core.Study_tolerance

let make ~tolerance =
  Ftb_oracle.Stencil.program
    { Ftb_oracle.Stencil.size = 5; sweeps = 3; seed = 3; tolerance }

let result =
  lazy (Study_tolerance.run ~fraction:0.05 ~seed:9 ~name:"stencil"
          ~tolerances:[| 1e-6; 1e-2; 10. |] make)

let test_point_per_tolerance () =
  let r = Lazy.force result in
  Alcotest.(check int) "three points" 3 (Array.length r.Study_tolerance.points);
  Array.iteri
    (fun i p ->
      Helpers.check_close "tolerances in order" [| 1e-6; 1e-2; 10. |].(i)
        p.Study_tolerance.tolerance)
    r.Study_tolerance.points

let test_sdc_decreases_with_tolerance () =
  let p = (Lazy.force result).Study_tolerance.points in
  Alcotest.(check bool) "looser T, less SDC" true
    (p.(2).Study_tolerance.golden_sdc < p.(0).Study_tolerance.golden_sdc);
  Array.iter
    (fun (point : Study_tolerance.point) ->
      Helpers.check_close ~eps:1e-12 "outcome split sums to 1" 1.
        (point.Study_tolerance.golden_sdc +. point.Study_tolerance.golden_masked
        +. point.Study_tolerance.golden_crash))
    p

let test_quality_metrics_in_range () =
  Array.iter
    (fun (p : Study_tolerance.point) ->
      List.iter
        (fun v -> Alcotest.(check bool) "in [0,1]" true (v >= 0. && v <= 1.))
        [
          p.Study_tolerance.precision; p.Study_tolerance.recall;
          p.Study_tolerance.uncertainty; p.Study_tolerance.non_monotonic_fraction;
        ])
    (Lazy.force result).Study_tolerance.points

let test_validation () =
  (match Study_tolerance.run ~name:"x" ~tolerances:[||] make with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty sweep accepted");
  match Study_tolerance.run ~name:"x" ~tolerances:[| 0. |] make with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero tolerance accepted"

let test_render () =
  let s = Ftb_report.Render.tolerance [ Lazy.force result ] in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun f -> Alcotest.(check bool) ("contains " ^ f) true (contains f s))
    [ "Tolerance sweep"; "stencil"; "golden SDC"; "non-monotonic" ];
  Alcotest.(check int) "one csv table" 1
    (List.length (Ftb_report.Render.csv_tolerance [ Lazy.force result ]))

let suite =
  [
    Alcotest.test_case "point per tolerance" `Quick test_point_per_tolerance;
    Alcotest.test_case "SDC decreases with tolerance" `Quick
      test_sdc_decreases_with_tolerance;
    Alcotest.test_case "quality metrics in range" `Quick test_quality_metrics_in_range;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "render" `Quick test_render;
  ]
