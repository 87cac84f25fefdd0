(* perfbench: drive `ftb serve` / `ftb worker` through one workload and
   print every metric by name and unit, then one JSON result line.

   perfbench --exe PATH --workload W --seed N --seconds S --trace 0|1 *)

let workloads = [ "exhaustive_cold"; "adaptive_cold"; "repeat_warm"; "fleet_cold" ]

let usage () =
  prerr_endline
    "usage: perfbench --exe FTB_CLI --workload (exhaustive_cold|adaptive_cold|repeat_warm|fleet_cold) \
     --seed N --seconds S --trace 0|1";
  exit 2

let parse argv =
  let exe = ref None and workload = ref None and seed = ref None in
  let seconds = ref None and trace = ref None in
  let rec go = function
    | "--exe" :: v :: rest -> exe := Some v; go rest
    | "--workload" :: v :: rest when List.mem v workloads -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!exe, !workload, !seed, !seconds, !trace) with
  | Some exe, Some w, Some seed, Some s, Some t when s > 0. -> (exe, w, seed, s, t)
  | _ -> usage ()

let say fmt = Printf.printf (fmt ^^ "\n%!")

(* The host record: what a reader needs to compare two result files. *)
let host_record ~workload ~seed ~trace =
  let shape = Live.shape_of workload in
  let kernels =
    List.sort_uniq compare
      (Jobs.exhaustive_kernels @ Jobs.adaptive_kernels @ Jobs.warm_kernels)
  in
  say "host: host_cores=%d ocaml=%s workload=%s seed=%d trace=%b" (Domain.recommended_domain_count ())
    Sys.ocaml_version workload seed trace;
  say "host: daemon_domains=%d worker_domains=%s connections=1 closed_loop" shape.Live.domains
    (if shape.Live.fleet then "1" else "none");
  List.iter
    (fun b ->
      let g = Oracle.golden b in
      say "host: kernel %s sites=%d cases_bf64=%d cases_bf32=%d" b (Ftb_trace.Golden.sites g)
        (Ftb_inject.Models.total_cases Jobs.bf64 ~sites:(Ftb_trace.Golden.sites g))
        (Ftb_inject.Models.total_cases Jobs.bf32 ~sites:(Ftb_trace.Golden.sites g)))
    kernels

(* Latency percentiles of the repeat_warm mix, printed with their sample
   counts (or the reason the helper refused them). *)
let warm_percentiles (o : Live.outcome) =
  let kind = function
    | Jobs.Resubmit j -> Jobs.kind_name j.Jobs.kind
    | Jobs.Query _ -> "query"
  in
  let report label ops =
    let lat = Array.of_list (List.map (fun (_, l, _, _) -> 1000. *. l) ops) in
    List.iter
      (fun p ->
        match Pstats.percentile lat ~p with
        | Ok v -> say "%s_p%g %.4f ms (%d samples)" label p v (Array.length lat)
        | Error msg -> say "%s_p%g refused: %s" label p msg)
      [ 50.; 99. ]
  in
  report "op_ms" o.Live.warm;
  List.iter
    (fun k -> report ("op_ms." ^ k) (List.filter (fun (op, _, _, _) -> kind op = k) o.Live.warm))
    [ "exhaustive"; "adaptive"; "query" ]

type untraced = {
  outcome : Live.outcome;
  values : (string * float) list;
  attempted : int;
  failed : int;
}

let untraced env workload =
  let o = Live.run env workload in
  let loop = o.Live.loop in
  say "loop: wall %.3f s, stolen %.3f s (all vCPUs), steal-adjusted %.3f s" loop.Proc.wall
    loop.Proc.stolen loop.Proc.adjusted;
  let rss = Live.peak_rss o.Live.daemon in
  Live.stop o.Live.daemon;
  let state = o.Live.daemon.Live.state in
  let t0 = Unix.gettimeofday () in
  let ex = Oracle.exhaustive ~state o.Live.records in
  let ad = Oracle.adaptive ~state o.Live.records in
  let wm = Oracle.warm ~state ~primed:o.Live.records o.Live.warm in
  env.Live.log (Printf.sprintf "correctness gate: %.1f s" (Unix.gettimeofday () -. t0));
  let mismatches = ex @ ad @ wm in
  List.iter (fun m -> prerr_endline ("perfbench: FAIL " ^ m)) (o.Live.failures @ mismatches);
  let attempted = max 1 o.Live.ops in
  let failed = min attempted (List.length o.Live.failures + List.length mismatches) in
  let values =
    [
      ("setup_s", o.Live.setup_s);
      ("cases_per_s", float_of_int o.Live.cases /. loop.Proc.adjusted);
      ("ops_per_s", float_of_int o.Live.ops /. loop.Proc.adjusted);
      ("rss_mb", rss);
      ("ok_rate", 1. -. (float_of_int failed /. float_of_int attempted));
    ]
  in
  { outcome = o; values; attempted; failed }

let print_metrics metrics values =
  List.iter
    (fun { Report.name; unit_ } ->
      match List.assoc_opt name values with
      | Some v -> say "%s %.6g %s" name v unit_
      | None -> say "%s missing" name)
    metrics

let main () =
  let exe, workload, seed, seconds, trace = parse Sys.argv in
  let exe = if Filename.is_relative exe then Filename.concat (Sys.getcwd ()) exe else exe in
  let root = ".perfbench" in
  (try Unix.mkdir root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let work = Filename.concat root (Printf.sprintf "%s-%d" workload (Unix.getpid ())) in
  Unix.mkdir work 0o755;
  let home = Sys.getcwd () in
  Sys.chdir work;
  let env =
    { Live.exe; seed; seconds; log = (fun s -> Printf.eprintf "perfbench: %s\n%!" s) }
  in
  (* The work directory stays behind: deleting a run's state directories
     (tens of MB of small files) makes an ext4 volume mounted with
     [discard] slow down file writes for a minute or more, which the next
     run would measure. *)
  let finish () = Sys.chdir home in
  match
    host_record ~workload ~seed ~trace;
    let u = untraced env workload in
    if u.outcome.Live.warm <> [] then warm_percentiles u.outcome;
    say "oracle: %s (%d attempted, %d failed)" (if u.failed = 0 then "ok" else "FAIL") u.attempted u.failed;
    if not trace then (u.values, u.attempted, u.failed)
    else
      let per_layer, failures = Traced.run env workload ~untraced:u.values in
      List.iter (fun m -> prerr_endline ("perfbench: FAIL (traced) " ^ m)) failures;
      say "traced oracle: %s" (if failures = [] then "ok" else "FAIL");
      (per_layer, u.attempted, min u.attempted (u.failed + List.length failures))
  with
  | values, attempted, failed ->
      finish ();
      let metrics = Report.metrics ~trace in
      print_metrics metrics values;
      print_endline
        (Report.render ~correct:(failed = 0) ~attempted ~failed ~metrics values)
  | exception e ->
      Proc.kill_all ();
      finish ();
      Printf.eprintf "perfbench: %s\n" (Printexc.to_string e);
      exit 1

let () = main ()
