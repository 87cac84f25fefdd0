(* Campaign-executor throughput benchmark (dune alias @bench-smoke).

   Measures exhaustive-campaign throughput (cases/sec) on a mix of IR
   kernels, across three configurations of the one campaign path,
   [Executor.ground_truth_model] under the default bit-flip-64 spec:

     batched_nocone  one domain, on a golden run of the program without
                     its cone capability: prefix-snapshot bit batching,
                     full suffix per case — the best path without cone
                     replay, and the base of the cone gain
     batched         one domain: prefix-snapshot batching plus
                     dependent-cone replay where the per-site forward
                     slice is exact (the programs are lowered through
                     Pipeline.to_program)
     pooled_batched  N domains, work stealing, cone replay where
                     available — quoted against batched (one domain)

   Every configuration's outcome bytes are asserted bit-identical to
   Ground_truth.run, the per-case reference (computed once, untimed),
   before any number is reported — a fast wrong campaign is worthless.
   Results go to a JSON file (default BENCH_campaign.json); --quick
   shrinks the inputs for CI.

   A persistence guard also times one production-cadence campaign (a
   checkpoint write per shard wave: ~100 ms waves in full mode, ~25 ms in
   --quick) with and without the CRC-32-enveloped checkpoint stream, and
   fails loudly if checksummed durability costs more than 2% of campaign
   throughput.

   A model table records the non-default models' throughput on the same
   executor (informational: every model, the stochastic one included,
   shares the cone and prefix-snapshot tiers with bit-flip-64).

   Usage: bench_campaign.exe [--quick] [--json PATH] [--domains N] [--reps N] *)

module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Engine = Ftb_campaign.Engine
module Checkpoint = Ftb_campaign.Checkpoint

type options = { quick : bool; json : string; domains : int; reps : int }

let parse_options () =
  let quick = ref false in
  let json = ref "BENCH_campaign.json" in
  let domains = ref 0 in
  let reps = ref 0 in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
        quick := true;
        go rest
    | "--json" :: path :: rest ->
        json := path;
        go rest
    | "--domains" :: n :: rest ->
        domains := int_of_string n;
        go rest
    | "--reps" :: n :: rest ->
        reps := int_of_string n;
        go rest
    | arg :: _ ->
        Printf.eprintf
          "unknown argument %s\n\
           usage: bench_campaign.exe [--quick] [--json PATH] [--domains N] [--reps N]\n"
          arg;
        exit 2
  in
  go (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  {
    quick;
    json = !json;
    domains =
      Ftb_util.Domains.default_or_exit
        ?flag:(if !domains > 0 then Some !domains else None)
        ();
    reps = (if !reps > 0 then !reps else if quick then 1 else 3);
  }

(* Each row: name and program (the compiled machine with its cone plan). *)
let programs ~quick =
  let open Ftb_ir in
  let ir name build = (name, Pipeline.to_program build) in
  let module K = Ftb_kernels.Ir_kernels in
  if quick then
    [
      ir "ir.dot" (Programs.dot ~n:40 ~seed:11 ~tolerance:1e-9);
      ir "ir.stencil3" (Programs.stencil3 ~n:24 ~sweeps:3 ~seed:13 ~tolerance:1e-9);
      ir "ir.gemm" (K.gemm ~n:6 ~block:3 ~seed:21 ~tolerance:1e-3);
      ir "ir.matmul" (K.matmul ~n:6 ~seed:9 ~tolerance:1e-3);
    ]
  else
    [
      ir "ir.dot" (Programs.dot ~n:160 ~seed:11 ~tolerance:1e-9);
      ir "ir.stencil3" (Programs.stencil3 ~n:48 ~sweeps:8 ~seed:13 ~tolerance:1e-9);
      ir "ir.matvec" (Programs.matvec ~n:24 ~seed:14 ~tolerance:1e-9);
      ir "ir.cg" (K.cg ~grid:6 ~iterations:8 ~tolerance:1e-4 ~record_init:false);
      ir "ir.lu" (K.lu ~n:12 ~block:4 ~seed:7 ~tolerance:1e-4);
      ir "ir.fft" (K.fft ~n1:8 ~n2:8 ~seed:11 ~tolerance:1.0);
      ir "ir.jacobi" (K.jacobi ~grid:6 ~sweeps:10 ~tolerance:1e-4);
      ir "ir.gemm" (K.gemm ~n:16 ~block:4 ~seed:21 ~tolerance:1e-3);
      ir "ir.matmul" (K.matmul ~n:16 ~seed:9 ~tolerance:1e-3);
      ir "ir.stencil" (K.stencil ~size:12 ~sweeps:6 ~seed:3 ~tolerance:1e-4);
    ]

(* Best-of-N wall-clock: campaigns are long enough that the minimum over a
   few repetitions is a stable, noise-resistant estimate. *)
let time ~reps f =
  let best = ref infinity and result = ref None in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    result := Some r
  done;
  (Option.get !result, !best)

type mode_result = { mode : string; seconds : float; cases_per_sec : float }

(* The campaign executor under the paper's fault model. *)
let executor ~domains golden = Executor.ground_truth_model ~domains Models.default_spec golden

(* The same trace without the cone capability: same fingerprint and case
   space, every site on the prefix-snapshot tier. *)
let cone_free golden =
  match golden.Golden.program.Ftb_trace.Program.cone with
  | None -> golden
  | Some _ -> Golden.run { golden.Golden.program with Ftb_trace.Program.cone = None }

let bench_program ~opts (name, program) =
  let golden = Golden.run program in
  let nocone = cone_free golden in
  let cases = Golden.cases golden in
  Printf.printf "%-12s %6d sites, %7d cases\n%!" name (Golden.sites golden) cases;
  let reference = Ground_truth.run golden in
  let check what (gt : Ground_truth.t) =
    if not (Bytes.equal reference.Ground_truth.outcomes gt.Ground_truth.outcomes) then begin
      Printf.eprintf "FATAL: %s outcomes differ from Ground_truth.run on %s\n" what name;
      exit 1
    end
  in
  (* Force the retained cone plan before timing: the one-time dataflow
     analysis belongs to lowering, not to the first timed campaign. *)
  let has_cone =
    match golden.Golden.program.Ftb_trace.Program.cone with
    | Some force -> force () <> None
    | None -> false
  in
  let modes =
    [
      ("batched_nocone", fun () -> executor ~domains:1 nocone);
      ("batched", fun () -> executor ~domains:1 golden);
      ("pooled_batched", fun () -> executor ~domains:opts.domains golden);
    ]
  in
  let results =
    List.map
      (fun (mode, run) ->
        let gt, seconds = time ~reps:opts.reps run in
        check mode gt;
        let cases_per_sec = float_of_int cases /. seconds in
        Printf.printf "  %-15s %8.3f s   %12.0f cases/s\n%!" mode seconds cases_per_sec;
        { mode; seconds; cases_per_sec })
      modes
  in
  let rate m = (List.find (fun r -> r.mode = m) results).cases_per_sec in
  if has_cone then
    Printf.printf "  cone replay: %.2fx over full-suffix batching\n%!"
      (rate "batched" /. rate "batched_nocone");
  Printf.printf "  pooled: %.2fx over one domain (%d domains)\n%!"
    (rate "pooled_batched" /. rate "batched")
    opts.domains;

  (name, Golden.sites golden, cases, has_cone, results)

(* Persistence guard: the integrity-enveloped (CRC-32 checksummed)
   checkpoint stream must stay in the noise of campaign throughput.

   A checkpoint write costs well under a millisecond (serialize, CRC,
   write, atomic rename), so the meaningful number is the amortized cost
   at a production cadence: one checkpoint per shard wave with waves that
   take real compute time. Two assertions, because the honest measurement
   and the stable measurement differ:

   - budget (2%): [saves-per-campaign x save cost / campaign time], the
     median over interleaved pairs of each pair's ratio: a pair times a
     batch of saves right beside a plain campaign, so a spell of disk
     traffic from other processes, or a slow spell of the host, lands on
     few pairs and the median drops them. (Timed as two separate best-of
     blocks, the two factors met different machine states, and a run
     beside other tests' disk writes read 2.3-2.8 % against a true cost
     under 1 %.)
   - tripwire (10%): end-to-end wall clock of the engine with vs without
     a checkpoint path: the median, over pairs, of each pair's time
     ratio. The true difference is a fraction of a percent, far below
     wall-clock noise on a shared host (single pairs read -19% to +11%),
     so this bound is loose — it exists to catch a structurally broken
     persistence path (an accidental fsync per wave, quadratic
     serialization), not to resolve the sub-1% cost. A pair is
     order-symmetric (plain, enveloped, enveloped, plain) and its ratio
     is the ratio of the sums: a drift of the host's speed that is linear
     over the pair lands equally on both variants, and neither variant
     always runs first. (Pairs that alternated which variant went first
     still read -5.5% to +12.0% on unchanged code: each pair kept its own
     order's drift, and a median does not average the two orders out.)
     The median drops the pairs a slow spell splits. *)

type persistence_guard = {
  guard_cases : int;
  guard_waves : int;
  save_s : float;  (* one Checkpoint.save: median over the pairs' batches *)
  plain_s : float;
  ckpt_s : float;
  pairs : int;
  amortized : float;  (* median over pairs of (waves + 1) * save / mean plain *)
  wall_overhead : float;  (* median over pairs of summed ckpt / summed plain, minus 1 *)
  budget : float;
  tripwire : float;
}

let bench_persistence ~opts =
  let open Ftb_ir in
  let n = if opts.quick then 200 else 800 in
  let waves = if opts.quick then 2 else 4 in
  let program = Ir.to_program (Programs.dot ~n ~seed:11 ~tolerance:1e-9) in
  let golden = Golden.run program in
  let cases = Golden.cases golden in
  let reference = Ground_truth.run golden in
  let check what (gt : Ground_truth.t) =
    if not (Bytes.equal reference.Ground_truth.outcomes gt.Ground_truth.outcomes) then begin
      Printf.eprintf "FATAL: %s outcomes differ from Ground_truth.run on the guard campaign\n"
        what;
      exit 1
    end
  in
  let shard_size = (cases + waves - 1) / waves in
  let config =
    { Engine.default_config with Engine.shard_size; checkpoint_every = 1; resume = false }
  in
  (* Overhead is a tiny difference between two close measurements, so the
     runs are interleaved in order-symmetric pairs rather than timed as
     two blocks: clock-speed drift between blocks would otherwise dwarf
     the signal. Short runs and many pairs: the host's speed wanders
     within a second, so the shorter a pair the more of that wander its
     ratio cancels. *)
  let pairs = if opts.quick then 31 else max opts.reps 15 in
  Printf.printf "persistence guard: ir.dot n:%d, %d cases, %d waves, checkpoint every wave\n%!"
    n cases waves;
  let ckpt_path = Filename.temp_file "ftb_bench" ".ckpt" in
  ignore (Engine.run ~config golden);
  (* Every timed run starts on a settled heap (an untimed full major
     collection, as in the cache guard): otherwise a run pays whatever
     major-GC debt the run before it left, and which variant inherits the
     larger debt decides the pair's ratio, not the checkpoint path. *)
  let timed f =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let gt = (f ()).Engine.ground_truth in
    (gt, Unix.gettimeofday () -. t0)
  in
  let run_plain () = timed (fun () -> Engine.run ~config golden) in
  let run_ckpt () = timed (fun () -> Engine.run ~config ~checkpoint:ckpt_path golden) in
  (* One enveloped checkpoint write, averaged over a batch. *)
  let save_state = Checkpoint.create golden ~shard_size in
  let per_batch = 10 in
  let save_batch () =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to per_batch do
      Checkpoint.save ~path:ckpt_path save_state
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int per_batch
  in
  (* Per pair, the sum of its two runs of each variant, and the fastest
     single run of each over the whole guard. *)
  let plain_times = Array.make pairs 0. and ckpt_times = Array.make pairs 0. in
  let save_times = Array.make pairs 0. in
  let plain_s = ref infinity and ckpt_s = ref infinity in
  let plain () =
    let t = snd (run_plain ()) in
    plain_s := Float.min !plain_s t;
    t
  and ckpt () =
    let t = snd (run_ckpt ()) in
    ckpt_s := Float.min !ckpt_s t;
    t
  in
  for i = 0 to pairs - 1 do
    (* Plain, enveloped, (save batch), enveloped, plain: symmetric about
       its middle, where the save batch sits, so the batch is divided by
       the mean of the plain runs on either side of it. *)
    let p1 = plain () in
    let c1 = ckpt () in
    save_times.(i) <- save_batch ();
    let c2 = ckpt () in
    plain_times.(i) <- p1 +. plain ();
    ckpt_times.(i) <- c1 +. c2
  done;
  check "engine (no persistence)" (fst (run_plain ()));
  check "engine (enveloped checkpoints)" (fst (run_ckpt ()));
  let plain_s = !plain_s and ckpt_s = !ckpt_s in
  (try Sys.remove ckpt_path with Sys_error _ -> ());
  let median = Ftb_util.Stats.median in
  let save_s = median save_times in
  let amortized =
    median
      (Array.map2 (fun save plain -> float_of_int (waves + 1) *. save /. (plain /. 2.))
         save_times plain_times)
  in
  let wall_overhead = median (Array.map2 ( /. ) ckpt_times plain_times) -. 1. in
  let budget = 0.02 and tripwire = 0.10 in
  Printf.printf
    "  checkpoint save %.3f ms x %d saves over %.3f s — amortized %.2f%% (median pair; \
     budget %.0f%%)\n%!"
    (1000. *. save_s) (waves + 1) plain_s (100. *. amortized) (100. *. budget);
  Printf.printf
    "  wall clock: enveloped %8.3f s vs plain %8.3f s (best of %d) — median pair %+.2f%% \
     (tripwire %.0f%%)\n%!"
    ckpt_s plain_s (2 * pairs) (100. *. wall_overhead) (100. *. tripwire);
  if amortized > budget then begin
    Printf.eprintf
      "FATAL: checksummed checkpoint persistence costs %.2f%% of campaign throughput \
       (budget %.0f%%)\n"
      (100. *. amortized) (100. *. budget);
    exit 1
  end;
  if wall_overhead > tripwire then begin
    Printf.eprintf
      "FATAL: campaign with checkpointing is %.2f%% slower end-to-end (tripwire %.0f%%) \
       — the persistence path is structurally broken\n"
      (100. *. wall_overhead) (100. *. tripwire);
    exit 1
  end;
  { guard_cases = cases; guard_waves = waves; save_s; plain_s; ckpt_s; pairs; amortized;
    wall_overhead; budget; tripwire }

(* Model table: throughput of the non-default fault models on the same
   executor, recorded for reference (no budget: each model's cost is its
   own). *)

type model_rate = { mr_spec : string; mr_cases : int; mr_cases_per_sec : float }

let bench_models ~opts =
  let open Ftb_ir in
  let n = if opts.quick then 200 else 800 in
  let program = Ir.to_program (Programs.dot ~n ~seed:11 ~tolerance:1e-9) in
  let golden = Golden.run program in
  Printf.printf "model table: ir.dot n:%d, non-default models\n%!" n;
  List.map
    (fun (spec : Models.spec) ->
      let total = Models.total_cases spec ~sites:(Golden.sites golden) in
      let _, seconds =
        time ~reps:opts.reps (fun () -> Executor.ground_truth_model ~domains:1 spec golden)
      in
      let rate = float_of_int total /. seconds in
      Printf.printf "  %-28s %8d cases  %8.3f s   %12.0f cases/s\n%!" (Models.spec_name spec)
        total seconds rate;
      { mr_spec = Models.spec_to_string spec; mr_cases = total; mr_cases_per_sec = rate })
    [
      { Models.model = Models.Bit_flip_32; seed = 0 };
      { Models.model = Models.Adjacent_burst_2; seed = 0 };
      { Models.model = Models.Random_value { lo = -50.; hi = 50. }; seed = 7 };
    ]

(* Cone guard: dependent-cone replay must never be slower than
   full-suffix batching by more than 5%. The cone path replays a subset
   of the suffix's instructions, so it should win by a wide margin — the
   budget exists to catch a regression where the per-site dispatch (the
   plan lookup, the per-site closure) starts costing more than the work
   it skips, or where the analysis quietly rejects every site and the
   "fast path" degenerates into fallback plus overhead. Interleaved
   best-of-N, same protocol as the other guards. *)

type cone_guard = {
  cg_name : string;
  cg_cases : int;
  cone_s : float;
  nocone_s : float;
  cg_speedup : float;  (* nocone / cone — how much the cone wins *)
  cg_budget : float;  (* max tolerated slowdown of cone vs full suffix *)
}

let bench_cone ~opts =
  let module K = Ftb_kernels.Ir_kernels in
  let name = "ir.gemm" in
  let ir =
    if opts.quick then K.gemm ~n:6 ~block:3 ~seed:21 ~tolerance:1e-3
    else K.gemm ~n:16 ~block:4 ~seed:21 ~tolerance:1e-3
  in
  let program = Ftb_ir.Pipeline.to_program ir in
  (match program.Ftb_trace.Program.cone with
  | Some force -> ignore (force ())
  | None ->
      Printf.eprintf "FATAL: the cone guard kernel has no cone capability\n";
      exit 1);
  let golden = Golden.run program in
  let nocone = cone_free golden in
  let cases = Golden.cases golden in
  let reference = executor ~domains:1 nocone in
  Printf.printf "cone guard: %s, %d cases, cone replay vs full-suffix batching\n%!" name
    cases;
  let reps = max opts.reps 5 in
  let cone_s = ref infinity and nocone_s = ref infinity in
  let timed best f =
    let t0 = Unix.gettimeofday () in
    let gt : Ground_truth.t = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt;
    gt
  in
  let run_cone () = timed cone_s (fun () -> executor ~domains:1 golden) in
  let run_nocone () = timed nocone_s (fun () -> executor ~domains:1 nocone) in
  for i = 1 to reps do
    let first, second = if i land 1 = 1 then (run_cone, run_nocone) else (run_nocone, run_cone) in
    ignore (first ());
    ignore (second ())
  done;
  let check what (gt : Ground_truth.t) =
    if not (Bytes.equal reference.Ground_truth.outcomes gt.Ground_truth.outcomes) then begin
      Printf.eprintf "FATAL: %s outcomes differ on the cone guard\n" what;
      exit 1
    end
  in
  check "cone replay" (run_cone ());
  check "full-suffix batching" (run_nocone ());
  let cone_s = !cone_s and nocone_s = !nocone_s in
  let cg_speedup = nocone_s /. cone_s in
  let cg_budget = 0.05 in
  Printf.printf "  cone %8.3f s vs full-suffix %8.3f s — %.2fx (slowdown budget %.0f%%)\n%!"
    cone_s nocone_s cg_speedup (100. *. cg_budget);
  if cone_s > nocone_s *. (1. +. cg_budget) then begin
    Printf.eprintf
      "FATAL: cone replay is %.2f%% slower than full-suffix batching (budget %.0f%%)\n"
      (100. *. ((cone_s /. nocone_s) -. 1.))
      (100. *. cg_budget);
    exit 1
  end;
  { cg_name = name; cg_cases = cases; cone_s; nocone_s; cg_speedup; cg_budget }

(* Cache guard: the compositional profile cache must earn its keep.

   Latencies on one kernel (ir.gemm, the cone guard's configurations),
   all under the daemon's default submission spec, fuel budget included:

     cold      a composed campaign against an empty store — sectionize,
               execute every case, harvest every profile — timed twice:
               cone-free (on a golden run whose program carries no cone
               plan: the tiers the headline floors were calibrated on)
               and on the best path (cone replay, which the daemon's fuel
               budget admits since it covers the golden step count)
     full hit  the daemon's submit-time serve path for a byte-identical
               resubmission: boundary-key probe plus the synthetic
               completed checkpoint it persists for the job; no golden
               run, no case execution
     raw I/O   the hit's unavoidable I/O done with bare primitives that
               bypass the serve path: a plain read of the boundary
               entry's file (no key hash, envelope check or decode) and
               a [Checkpoint.save] of a same-sized checkpoint built
               beforehand
     partial   one section's profile (and the whole-boundary profile)
               invalidated — the store-level image of editing that
               section — then a cone-free composed rerun that reuses
               every other section's bytes and executes only the
               invalidated one

   Guards, each on the median over interleaved pairs of the per-pair
   ratio:
   - against the cone-free cold campaign, a full hit must win by the
     floor below (it is one hash, one store read and one checkpoint
     write), and the partial rerun must cost no more than the
     invalidated section's share of the case space plus fixed overhead
     (sectionize's replay validation, probes, harvest) —
     proportionality to the edit is the whole point of compositional
     analysis. The share is of the case count, not of the cost: under
     full-suffix replay the earliest section's cases are the most
     expensive, so the budget carries slack;
   - against the best cold path, a full hit must win by the speedup it
     would reach if it cost 2.5 times its raw I/O (at least 1: a hit
     never loses to a cold run). Cone replay makes a cold gemm campaign
     cost little more than sectionize and harvest, so no fixed ratio
     holds there across kernel sizes; what the serve path must not do
     is spend more than 1.5 raw I/Os on top of its unavoidable I/O on
     hashing the key, checking the envelope, decoding and converting.
     Those steps measure 0.4 (quick) to 0.7-1.0 (full) of a raw I/O,
     the envelope CRC and the outcome-byte scan dominating, so the
     floor leaves them 1.5 to 4 times their measured cost.
   Every path's bytes are asserted identical to the model-aware executor
   under the same fuel before any number is reported. *)

type cache_guard = {
  hg_name : string;
  hg_cases : int;
  hg_sections : int;
  cold_s : float;  (* cone-free cold composed campaign *)
  cold_best_s : float;  (* best-path cold composed campaign *)
  full_s : float;
  raw_io_s : float;  (* the hit's read + checkpoint write, as bare primitives *)
  partial_s : float;
  hg_share : float;  (* invalidated section's share of the case space *)
  hg_full_speedup : float;  (* cone-free cold / full hit *)
  hg_full_floor : float;  (* minimum tolerated full-hit speedup *)
  hg_best_speedup : float;  (* best-path cold / full hit *)
  hg_best_floor : float;  (* derived from the hit's raw I/O *)
  hg_partial_ratio : float;  (* partial / cone-free cold *)
  hg_partial_budget : float;  (* maximum tolerated partial / cold *)
  hg_pairs : int;  (* interleaved pairs the medians are over *)
}

let bench_cache ~opts =
  let module K = Ftb_kernels.Ir_kernels in
  let module Compose = Ftb_compose.Compose in
  let module Section = Ftb_compose.Section in
  let module Store = Ftb_compose.Store in
  let name = "ir.gemm" in
  let ir =
    if opts.quick then K.gemm ~n:6 ~block:3 ~seed:21 ~tolerance:1e-3
    else K.gemm ~n:16 ~block:4 ~seed:21 ~tolerance:1e-3
  in
  let fuel = Some 10_000_000 (* Ftb_service.Job.default_spec's budget *) in
  let golden = Golden.run (Ftb_ir.Pipeline.to_program ir) in
  (* The same trace without the cone capability: same fingerprint and
     store keys, so it shares the store with [golden], but every case
     takes the prefix-snapshot tier. *)
  let nocone = cone_free golden in
  let cases = Golden.cases golden in
  let reference =
    (Executor.ground_truth_model ~domains:1 ?fuel Models.default_spec nocone)
      .Ground_truth.outcomes
  in
  let check what (outcomes : Bytes.t) =
    if not (Bytes.equal reference outcomes) then begin
      Printf.eprintf "FATAL: %s outcomes differ on the cache guard\n" what;
      exit 1
    end
  in
  let plan =
    match Section.sectionize ~ir ~golden ~model:Models.default_spec ~fuel with
    | Some p -> p
    | None ->
        Printf.eprintf "FATAL: the cache guard kernel did not sectionize\n";
        exit 1
  in
  let sections = Array.length plan.Section.sections in
  Printf.printf
    "cache guard: %s, %d cases, %d sections — cold vs full hit vs one-section edit\n%!" name
    cases sections;
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb-bench-cache.%d" (Unix.getpid ()))
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | exception Unix.Unix_error _ -> ()
    | { Unix.st_kind = Unix.S_DIR; _ } ->
        Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
        (try Unix.rmdir path with Unix.Unix_error _ -> ())
    | _ -> ( try Sys.remove path with Sys_error _ -> ())
  in
  let ckpt_path = Filename.temp_file "ftb_bench_cache" ".ckpt" in
  let program = golden.Golden.program.Ftb_trace.Program.name in
  (* Full hit: the daemon's serve path against a populated store. *)
  let probe store =
    match Compose.probe_boundary store ~ir ~model:Models.default_spec ~fuel with
    | None ->
        Printf.eprintf "FATAL: the populated store missed the boundary probe\n";
        exit 1
    | Some b -> b
  in
  let persist b =
    Checkpoint.save ~path:ckpt_path (Compose.checkpoint_of_boundary b ~program ~shard_size:4096)
  in
  let serve store =
    let b = probe store in
    persist b;
    b
  in
  (* Raw I/O: what any serve path must do, done with bare primitives. *)
  let same_sized =
    {
      Checkpoint.program;
      sites = Golden.sites golden;
      shard_size = 4096;
      model = Models.default_spec;
      fingerprint = Checkpoint.fingerprint_of_golden golden;
      completed = Array.make ((cases + 4095) / 4096) true;
      outcomes = reference;
    }
  in
  (* Partial: the victim section's profile and the whole-boundary profile
     are invalidated before each rerun (the rerun's harvest restores
     both). *)
  let victim = plan.Section.sections.(0) in
  let bkey = Section.boundary_key ~ir ~model:Models.default_spec ~fuel in
  let share =
    float_of_int (victim.Section.site_hi - victim.Section.site_lo)
    /. float_of_int plan.Section.sites
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let cold_run golden =
    rm_rf root;
    let store = Store.open_ ~root in
    let cold, dt = timed (fun () -> Compose.run ?fuel store ~ir golden) in
    check "cold composed campaign" cold.Compose.outcomes;
    if cold.Compose.provenance <> Compose.Cold then begin
      Printf.eprintf "FATAL: the empty-store campaign was not cold\n";
      exit 1
    end;
    (store, dt)
  in
  (* Interleaved pairs: each pair runs the cone-free cold campaign on an
     empty store, full-hit serves alternating with raw I/O, a one-section
     rerun, and the best-path cold campaign on an empty store, back to
     back, so a drift in host speed scales them alike and cancels in the
     pair's ratios. The guards read the median ratio over
     pairs; single best-of blocks timed apart let one slow block decide. *)
  let pairs = if opts.quick then 15 else max opts.reps 9 in
  let serves = 20 in
  let cold_t = Array.make pairs 0. in
  let best_t = Array.make pairs 0. in
  let full_t = Array.make pairs 0. in
  let raw_io_t = Array.make pairs 0. in
  let partial_t = Array.make pairs 0. in
  for i = 0 to pairs - 1 do
    let store, dt = cold_run nocone in
    cold_t.(i) <- dt;
    (* Serves and raw I/O alternate one by one, each on a settled heap,
       so neither pays the other's (or the cold campaign's) major-GC
       debt. *)
    let entry = Store.path_of_key store bkey in
    let full = ref 0. and io = ref 0. in
    for _ = 1 to serves do
      Gc.full_major ();
      let boundary, dt = timed (fun () -> serve store) in
      full := !full +. dt;
      check "boundary-profile serve" (Bytes.of_string boundary.Ftb_compose.Profile.boutcomes);
      Gc.full_major ();
      let (), dt =
        timed (fun () ->
            ignore (In_channel.with_open_bin entry In_channel.input_all : string);
            Checkpoint.save ~path:ckpt_path same_sized)
      in
      io := !io +. dt
    done;
    full_t.(i) <- !full /. float_of_int serves;
    raw_io_t.(i) <- !io /. float_of_int serves;
    if Store.invalidate store ~prefix:victim.Section.key < 1 then begin
      Printf.eprintf "FATAL: invalidating the victim section removed nothing\n";
      exit 1
    end;
    ignore (Store.invalidate store ~prefix:bkey : int);
    let partial, dt = timed (fun () -> Compose.run ?fuel store ~ir nocone) in
    partial_t.(i) <- dt;
    check "partial composed rerun" partial.Compose.outcomes;
    if
      partial.Compose.provenance <> Compose.Partial
      || partial.Compose.sections_hit <> sections - 1
    then begin
      Printf.eprintf "FATAL: the one-section rerun was not a %d-of-%d partial hit\n"
        (sections - 1) sections;
      exit 1
    end;
    let _, dt = cold_run golden in
    best_t.(i) <- dt
  done;
  (try Sys.remove ckpt_path with Sys_error _ -> ());
  rm_rf root;
  let median = Ftb_util.Stats.median in
  let cold_s = median cold_t and cold_best_s = median best_t in
  let full_s = median full_t and raw_io_s = median raw_io_t and partial_s = median partial_t in
  let hg_full_speedup = median (Array.map2 ( /. ) cold_t full_t) in
  (* Quick inputs are tiny, so the full hit's fixed costs (one file read,
     one checkpoint write) weigh proportionally more; the headline floor
     holds on the full-size kernel. *)
  let hg_full_floor = if opts.quick then 10. else 100. in
  let hg_best_speedup = median (Array.map2 ( /. ) best_t full_t) in
  let hg_best_floor =
    Float.max 1. (median (Array.map2 (fun best io -> best /. (2.5 *. io)) best_t raw_io_t))
  in
  let hg_partial_ratio = median (Array.map2 ( /. ) partial_t cold_t) in
  let hg_partial_budget = Float.min 0.95 (share +. 0.5) in
  Printf.printf
    "  cold (cone-free) %8.3f s | full hit %.6f s (median pair %.0fx, floor %.0fx; %d pairs)\n%!"
    cold_s full_s hg_full_speedup hg_full_floor pairs;
  Printf.printf
    "  cold (best path) %8.3f s | hit raw I/O %.6f s — full hit median pair %.1fx (floor \
     %.1fx: 2.5 times the raw I/O)\n%!"
    cold_best_s raw_io_s hg_best_speedup hg_best_floor;
  Printf.printf
    "  partial %8.3f s — median pair %.2fx of cone-free cold (invalidated share %.2f, budget \
     %.2f)\n%!"
    partial_s hg_partial_ratio share hg_partial_budget;
  if hg_full_speedup < hg_full_floor then begin
    Printf.eprintf
      "FATAL: a full cache hit is only %.1fx faster than a cone-free cold campaign (floor \
       %.0fx)\n"
      hg_full_speedup hg_full_floor;
    exit 1
  end;
  if hg_best_speedup < hg_best_floor then begin
    Printf.eprintf
      "FATAL: a full cache hit is only %.1fx faster than a best-path cold campaign (floor \
       %.1fx: it costs more than 2.5 times its raw I/O, or loses to a cold run)\n"
      hg_best_speedup hg_best_floor;
    exit 1
  end;
  if hg_partial_ratio > hg_partial_budget then begin
    Printf.eprintf
      "FATAL: a one-section rerun costs %.0f%% of a cold campaign (share %.0f%%, budget \
       %.0f%%) — partial hits are not proportional to the edit\n"
      (100. *. hg_partial_ratio) (100. *. share)
      (100. *. hg_partial_budget);
    exit 1
  end;
  {
    hg_name = name;
    hg_cases = cases;
    hg_sections = sections;
    cold_s;
    cold_best_s;
    full_s;
    raw_io_s;
    partial_s;
    hg_share = share;
    hg_full_speedup;
    hg_full_floor;
    hg_best_speedup;
    hg_best_floor;
    hg_partial_ratio;
    hg_partial_budget;
    hg_pairs = pairs;
  }

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let write_json ~opts ~guard ~models ~cone ~cache rows =
  let buf = Buffer.create 4096 in
  let bpf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  bpf "{\n";
  bpf "  \"benchmark\": \"campaign-executor-throughput\",\n";
  bpf "  \"quick\": %b,\n" opts.quick;
  bpf "  \"domains\": %d,\n" opts.domains;
  bpf "  \"host_cores\": %d,\n" (Domain.recommended_domain_count ());
  bpf "  \"reps\": %d,\n" opts.reps;
  bpf "  \"identical_outcomes\": true,\n";
  bpf "  \"persistence_guard\": {\n";
  bpf "    \"cases\": %d,\n" guard.guard_cases;
  bpf "    \"waves\": %d,\n" guard.guard_waves;
  bpf "    \"save_seconds\": %.6f,\n" guard.save_s;
  bpf "    \"plain_seconds\": %.6f,\n" guard.plain_s;
  bpf "    \"enveloped_seconds\": %.6f,\n" guard.ckpt_s;
  bpf "    \"amortized_overhead\": %.4f,\n" guard.amortized;
  bpf "    \"wall_pairs\": %d,\n" guard.pairs;
  bpf "    \"wall_overhead\": %.4f,\n" guard.wall_overhead;
  bpf "    \"budget\": %.2f,\n" guard.budget;
  bpf "    \"tripwire\": %.2f,\n" guard.tripwire;
  bpf "    \"within_budget\": true\n";
  bpf "  },\n";
  bpf "  \"non_default_models\": [\n";
  List.iteri
    (fun i { mr_spec; mr_cases; mr_cases_per_sec } ->
      bpf "    { \"spec\": \"%s\", \"cases\": %d, \"cases_per_sec\": %.1f }%s\n"
        (json_escape mr_spec) mr_cases mr_cases_per_sec
        (if i = List.length models - 1 then "" else ","))
    models;
  bpf "  ],\n";
  bpf "  \"cone_guard\": {\n";
  bpf "    \"kernel\": \"%s\",\n" (json_escape cone.cg_name);
  bpf "    \"cases\": %d,\n" cone.cg_cases;
  bpf "    \"cone_seconds\": %.6f,\n" cone.cone_s;
  bpf "    \"full_suffix_seconds\": %.6f,\n" cone.nocone_s;
  bpf "    \"speedup\": %.3f,\n" cone.cg_speedup;
  bpf "    \"slowdown_budget\": %.2f,\n" cone.cg_budget;
  bpf "    \"within_budget\": true\n";
  bpf "  },\n";
  bpf "  \"cache_guard\": {\n";
  bpf "    \"kernel\": \"%s\",\n" (json_escape cache.hg_name);
  bpf "    \"cases\": %d,\n" cache.hg_cases;
  bpf "    \"sections\": %d,\n" cache.hg_sections;
  bpf "    \"cold_cone_free_seconds\": %.6f,\n" cache.cold_s;
  bpf "    \"cold_best_path_seconds\": %.6f,\n" cache.cold_best_s;
  bpf "    \"full_hit_seconds\": %.6f,\n" cache.full_s;
  bpf "    \"full_hit_raw_io_seconds\": %.6f,\n" cache.raw_io_s;
  bpf "    \"partial_seconds\": %.6f,\n" cache.partial_s;
  bpf "    \"invalidated_share\": %.4f,\n" cache.hg_share;
  bpf "    \"full_hit_speedup_vs_cone_free\": %.1f,\n" cache.hg_full_speedup;
  bpf "    \"full_hit_floor_vs_cone_free\": %.1f,\n" cache.hg_full_floor;
  bpf "    \"full_hit_speedup_vs_best_path\": %.1f,\n" cache.hg_best_speedup;
  bpf "    \"full_hit_floor_vs_best_path\": %.1f,\n" cache.hg_best_floor;
  bpf "    \"partial_ratio\": %.4f,\n" cache.hg_partial_ratio;
  bpf "    \"partial_budget\": %.4f,\n" cache.hg_partial_budget;
  bpf "    \"pairs\": %d,\n" cache.hg_pairs;
  bpf "    \"within_budget\": true\n";
  bpf "  },\n";
  bpf "  \"programs\": [\n";
  List.iteri
    (fun i (name, sites, cases, has_cone, results) ->
      bpf "    {\n";
      bpf "      \"name\": \"%s\",\n" (json_escape name);
      bpf "      \"sites\": %d,\n" sites;
      bpf "      \"cases\": %d,\n" cases;
      bpf "      \"cone\": %b,\n" has_cone;
      bpf "      \"modes\": {\n";
      List.iteri
        (fun j { mode; seconds; cases_per_sec } ->
          bpf "        \"%s\": { \"seconds\": %.6f, \"cases_per_sec\": %.1f }%s\n" mode
            seconds cases_per_sec
            (if j = List.length results - 1 then "" else ","))
        results;
      bpf "      },\n";
      let rate m =
        (List.find (fun r -> r.mode = m) results).cases_per_sec
      in
      bpf "      \"speedup_cone_vs_full_suffix\": %.3f,\n"
        (rate "batched" /. rate "batched_nocone");
      bpf "      \"speedup_pooled_vs_one_domain\": %.3f\n"
        (rate "pooled_batched" /. rate "batched");
      bpf "    }%s\n" (if i = List.length rows - 1 then "" else ","))
    rows;
  bpf "  ]\n";
  bpf "}\n";
  let oc = open_out opts.json in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "wrote %s\n%!" opts.json

let () =
  let opts = parse_options () in
  Printf.printf "campaign executor benchmark (%s, %d domains, best of %d)\n%!"
    (if opts.quick then "quick" else "full")
    opts.domains opts.reps;
  let rows = List.map (bench_program ~opts) (programs ~quick:opts.quick) in
  let guard = bench_persistence ~opts in
  let models = bench_models ~opts in
  let cone = bench_cone ~opts in
  let cache = bench_cache ~opts in
  write_json ~opts ~guard ~models ~cone ~cache rows
