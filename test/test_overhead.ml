module Study_overhead = Ftb_core.Study_overhead

let config = { Ftb_oracle.Stencil.size = 5; sweeps = 2; seed = 3; tolerance = 1e-4 }

let result =
  lazy
    (Study_overhead.run ~repetitions:3 ~name:"stencil"
       ~plain:(fun () -> Ftb_oracle.Stencil.run_plain config)
       (Ftb_oracle.Stencil.program config))

let test_fields_positive () =
  let r = Lazy.force result in
  Alcotest.(check string) "name" "stencil" r.Study_overhead.name;
  Alcotest.(check int) "sites" (25 + (2 * 25)) r.Study_overhead.sites;
  List.iter
    (fun (what, v) ->
      Alcotest.(check bool) (what ^ " positive") true (v > 0. && Float.is_finite v))
    [
      ("plain", r.Study_overhead.plain_ns);
      ("golden", r.Study_overhead.golden_ns);
      ("outcome", r.Study_overhead.outcome_ns);
      ("propagation", r.Study_overhead.propagation_ns);
      ("lockstep", r.Study_overhead.lockstep_ns);
    ];
  Alcotest.(check int) "trace bytes = 16 per site" (16 * r.Study_overhead.sites)
    r.Study_overhead.trace_bytes

let test_without_plain_oracle () =
  let r =
    Study_overhead.run ~repetitions:2 ~name:"stencil"
      (Ftb_oracle.Stencil.program config)
  in
  Alcotest.(check bool) "plain is nan" true (Float.is_nan r.Study_overhead.plain_ns)

let test_render () =
  let s = Study_overhead.render [ Lazy.force result ] in
  let contains needle haystack =
    let n = String.length needle and h = String.length haystack in
    let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun f -> Alcotest.(check bool) ("contains " ^ f) true (contains f s))
    [ "Overhead"; "stencil"; "lockstep"; "slowdown" ]

let test_invalid_repetitions () =
  match
    Study_overhead.run ~repetitions:0 ~name:"x" (Ftb_oracle.Stencil.program config)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 repetitions accepted"

let suite =
  [
    Alcotest.test_case "fields positive" `Quick test_fields_positive;
    Alcotest.test_case "without plain oracle" `Quick test_without_plain_oracle;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "invalid repetitions" `Quick test_invalid_repetitions;
  ]
