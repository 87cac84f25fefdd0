(* Tests of the perfbench harness: seeded job streams, the percentile
   helper's sample rule, and the result line against BENCHMARK.json. *)

open Perfbench_lib
module Json = Ftb_service.Json

let describe_all jobs = List.map Jobs.describe jobs

let sites = function "ir.lu" -> 332 | _ -> 256

let take n next = List.init n (fun _ -> next ())

let op_name = function
  | Jobs.Resubmit j -> "resubmit " ^ Jobs.describe j
  | Jobs.Query { bench; site; bit } -> Printf.sprintf "query %s %d %d" bench site bit

let same_seed_same_stream () =
  for pass = 0 to 2 do
    Alcotest.(check (list string))
      "exhaustive pass" (describe_all (Jobs.exhaustive_pass ~seed:7 ~pass))
      (describe_all (Jobs.exhaustive_pass ~seed:7 ~pass));
    Alcotest.(check (list string))
      "adaptive pass" (describe_all (Jobs.adaptive_pass ~seed:7 ~pass))
      (describe_all (Jobs.adaptive_pass ~seed:7 ~pass))
  done;
  Alcotest.(check (list string))
    "priming" (describe_all (Jobs.warm_priming ~seed:7))
    (describe_all (Jobs.warm_priming ~seed:7));
  Alcotest.(check (list string))
    "warm ops"
    (List.map op_name (take 600 (Jobs.warm_ops ~seed:7 ~sites)))
    (List.map op_name (take 600 (Jobs.warm_ops ~seed:7 ~sites)));
  Alcotest.(check bool)
    "another seed, another stream" true
    (describe_all (Jobs.adaptive_pass ~seed:7 ~pass:0) <> describe_all (Jobs.adaptive_pass ~seed:8 ~pass:0))

let passes_cover_the_catalogue () =
  let ex = Jobs.exhaustive_pass ~seed:3 ~pass:1 in
  Alcotest.(check int) "12 exhaustive jobs" 12 (List.length ex);
  Alcotest.(check int) "all distinct" 12 (List.length (List.sort_uniq compare ex));
  Alcotest.(check bool) "passes never repeat a campaign" true
    (List.for_all (fun j -> not (List.mem j (Jobs.exhaustive_pass ~seed:3 ~pass:0))) ex);
  let ad = Jobs.adaptive_pass ~seed:3 ~pass:0 in
  Alcotest.(check (list string)) "one adaptive job per kernel"
    (List.sort compare Jobs.adaptive_kernels)
    (List.sort compare (List.map (fun j -> j.Jobs.bench) ad))

let warm_mix_is_thirds () =
  let ops = take 600 (Jobs.warm_ops ~seed:11 ~sites) in
  let count p = List.length (List.filter p ops) in
  let kind k = function Jobs.Resubmit j -> j.Jobs.kind = k | Jobs.Query _ -> false in
  Alcotest.(check int) "exhaustive" 200 (count (kind Jobs.Exhaustive));
  Alcotest.(check int) "adaptive" 200 (count (kind Jobs.Adaptive));
  Alcotest.(check int) "queries" 200 (count (function Jobs.Query _ -> true | _ -> false));
  let primed = Jobs.warm_priming ~seed:11 in
  Alcotest.(check bool) "resubmissions re-read primed originals" true
    (List.for_all (function Jobs.Resubmit j -> List.mem j primed | Jobs.Query _ -> true) ops)

let percentile_needs_ten_beyond () =
  let xs n = Array.init n float_of_int in
  let ok = function Ok _ -> true | Error _ -> false in
  Alcotest.(check bool) "p99 of 999 refused" false (ok (Pstats.percentile (xs 999) ~p:99.));
  Alcotest.(check bool) "p99 of 1000 given" true (ok (Pstats.percentile (xs 1000) ~p:99.));
  Alcotest.(check bool) "p50 of 19 refused" false (ok (Pstats.percentile (xs 19) ~p:50.));
  Alcotest.(check bool) "p50 of 20 given" true (ok (Pstats.percentile (xs 20) ~p:50.))

let steal_adjustment () =
  let adj = Pstats.steal_adjusted in
  let close = Alcotest.(check (float 1e-9)) in
  close "no steal" 10. (adj ~wall:10. ~busy:9. ~steal:0.);
  (* a serial loop loses every stolen second, also when it sleeps *)
  close "serial" 8. (adj ~wall:10. ~busy:8. ~steal:2.);
  close "serial, sleeping" 8. (adj ~wall:10. ~busy:3. ~steal:2.);
  (* two busy vCPUs: a stolen second on one costs half a second of wall *)
  close "two vCPUs" 9. (adj ~wall:10. ~busy:18. ~steal:2.)

let member_exn k j = Option.get (Json.member k j)
let str k j = Option.get (Json.to_str (member_exn k j))

let benchmark_json () =
  let ic = open_in_bin "../../BENCHMARK.json" in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Json.of_string s

(* Render a result line as the harness does, parse it back, and compare
   its metric names and units with BENCHMARK.json. *)
let result_line_matches_benchmark_json () =
  let bench = benchmark_json () in
  List.iter
    (fun (trace, key) ->
      let metrics = Report.metrics ~trace in
      let values = List.mapi (fun i m -> (m.Report.name, 1.5 +. float_of_int i)) metrics in
      let line = Report.render ~correct:true ~attempted:3 ~failed:0 ~metrics values in
      let parsed = Json.of_string line in
      Alcotest.(check (list string))
        "result keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (match parsed with Json.Obj kvs -> List.map fst kvs | _ -> []);
      let got =
        match member_exn "metrics" parsed with
        | Json.Obj kvs -> List.map (fun (name, v) -> (name, str "unit" v)) kvs
        | _ -> []
      in
      let want =
        List.map (fun m -> (str "name" m, str "unit" m)) (Option.get (Json.to_list (member_exn key bench)))
      in
      Alcotest.(check (list (pair string string))) key (List.sort compare want) (List.sort compare got))
    [ (false, "end_to_end"); (true, "per_layer") ]

let render_refuses_missing_metrics () =
  Alcotest.check_raises "missing" (Invalid_argument "metric setup_s was not measured") (fun () ->
      ignore (Report.render ~correct:true ~attempted:1 ~failed:0 ~metrics:Report.end_to_end []))

let () =
  Alcotest.run "perfbench"
    [
      ( "jobs",
        [
          Alcotest.test_case "same seed, same stream" `Quick same_seed_same_stream;
          Alcotest.test_case "passes cover the catalogue" `Quick passes_cover_the_catalogue;
          Alcotest.test_case "warm mix is equal thirds" `Quick warm_mix_is_thirds;
        ] );
      ( "pstats",
        [
          Alcotest.test_case "ten samples beyond" `Quick percentile_needs_ten_beyond;
          Alcotest.test_case "steal adjustment" `Quick steal_adjustment;
        ] );
      ( "report",
        [
          Alcotest.test_case "result line matches BENCHMARK.json" `Quick result_line_matches_benchmark_json;
          Alcotest.test_case "missing metric refused" `Quick render_refuses_missing_metrics;
        ] );
    ]
