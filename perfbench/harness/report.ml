(* The metrics the harness reports, and the one-line JSON result that ends
   its standard output. The tables here and BENCHMARK.json must agree; the
   tests check that they do. *)

module Json = Ftb_service.Json

type metric = { name : string; unit_ : string }

let m name unit_ = { name; unit_ }

(* Reported by every untraced run ([--trace 0]), on every workload. *)
let end_to_end =
  [
    m "setup_s" "s";
    m "cases_per_s" "1/s";
    m "ops_per_s" "1/s";
    m "rss_mb" "MB";
    m "ok_rate" "fraction";
  ]

(* Reported by every traced run ([--trace 1]), on every workload. *)
let per_layer =
  [
    m "inject.executor_busy_s" "s";
    m "inject.executor_cases_per_busy_s" "1/s";
    m "inject.executor_busy_share" "fraction";
    m "inject.sample_us" "us";
    m "inject.sample_busy_share" "fraction";
    m "inject.best_path_cases_per_s" "1/s";
    m "ir.resolve_ms" "ms";
    m "ir.compile_ms" "ms";
    m "ir.cone_plan_ms" "ms";
    m "ir.cone_covered_frac" "fraction";
    m "trace.golden_ms" "ms";
    m "campaign.waves_per_job" "count";
    m "campaign.wave_gap_ms" "ms";
    m "campaign.checkpoint_ms" "ms";
    m "campaign.checkpoint_bytes" "bytes";
    m "core.plan_round_ms" "ms";
    m "core.fold_ms" "ms";
    m "core.samples_per_boundary" "count";
    m "core.masked_sample_frac" "fraction";
    m "core.serial_boundary_s" "s";
    m "plan.round_overhead_ms" "ms";
    m "plan.rounds_per_boundary" "count";
    m "plan.round_checkpoint_ms" "ms";
    m "plan.store_put_ms" "ms";
    m "plan.store_find_latest_ms" "ms";
    m "plan.store_query_us" "us";
    m "compose.probe_miss_ms" "ms";
    m "compose.probe_hit_ms" "ms";
    m "compose.harvest_ms" "ms";
    m "compose.hit_ratio" "fraction";
    m "compose.store_bytes" "bytes";
    m "service.submit_rtt_ms" "ms";
    m "service.queue_wait_ms" "ms";
    m "service.finalize_ms" "ms";
    m "service.frames_per_op" "count";
    m "service.state_bytes_per_op" "bytes";
    m "dist.wave_ms" "ms";
    m "dist.remote_commit_frac" "fraction";
    m "dist.lease_expiries" "count";
    m "dist.audit_reexec_shards" "count";
    m "trace.overhead_frac" "fraction";
  ]

let metrics ~trace = if trace then per_layer else end_to_end

(* The result line. Every metric of the table must have a finite value;
   anything else is a harness defect and raises. *)
let render ~correct ~attempted ~failed ~metrics values =
  let field { name; unit_ } =
    match List.assoc_opt name values with
    | Some v when Float.is_finite v ->
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit_) ])
    | Some v -> invalid_arg (Printf.sprintf "metric %s is not finite (%g)" name v)
    | None -> invalid_arg (Printf.sprintf "metric %s was not measured" name)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj (List.map field metrics));
       ])
