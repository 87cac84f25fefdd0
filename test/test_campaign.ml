(* The resumable campaign engine: checkpoint round-trips, crash taxonomy
   bytes, the fuel watchdog on a deliberately diverging program, and
   supervisor retries. *)

module Ctx = Ftb_trace.Ctx
module Fault = Ftb_trace.Fault
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Ground_truth = Ftb_inject.Ground_truth
module Persist = Ftb_inject.Persist
module Shard = Ftb_campaign.Shard
module Checkpoint = Ftb_campaign.Checkpoint
module Engine = Ftb_campaign.Engine

let tmp name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("ftb_campaign_" ^ name) in
  if Sys.file_exists path then Sys.remove path;
  path

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let golden = lazy (Golden.run (Helpers.linear_program ()))
let diverging = lazy (Golden.run (Helpers.diverging_program ()))

exception Interrupted

(* ------------------------------------------------------------------ *)
(* Sharding arithmetic                                                 *)

let test_shard_bounds () =
  Alcotest.(check int) "count" 3 (Shard.count ~total:7 ~shard_size:3);
  Alcotest.(check (pair int int)) "first" (0, 3) (Shard.bounds ~total:7 ~shard_size:3 0);
  Alcotest.(check (pair int int)) "last is short" (6, 7)
    (Shard.bounds ~total:7 ~shard_size:3 2);
  Alcotest.(check int) "empty space" 0 (Shard.count ~total:0 ~shard_size:3)

let shard_cover =
  QCheck.Test.make ~name:"shards partition the case space" ~count:100
    QCheck.(pair (int_range 0 500) (int_range 1 64))
    (fun (total, shard_size) ->
      let shards = Shard.all ~total ~shard_size in
      let seen = Array.make total 0 in
      Array.iter
        (fun (s : Shard.t) ->
          for case = s.Shard.lo to s.Shard.hi - 1 do
            seen.(case) <- seen.(case) + 1
          done)
        shards;
      Array.for_all (fun n -> n = 1) seen)

(* ------------------------------------------------------------------ *)
(* Crash-taxonomy byte encoding                                        *)

let all_reasons =
  [ None; Some Ctx.Exception_raised; Some Ctx.Nan_value; Some Ctx.Inf_value;
    Some Ctx.Fuel_exhausted ]

let test_taxonomy_bytes_roundtrip () =
  let fault = Fault.make ~site:0 ~bit:0 in
  let mk outcome crash_reason =
    { Runner.fault; outcome; crash_reason; injected_error = 0.; output_error = 0. }
  in
  List.iter
    (fun (outcome, reasons) ->
      List.iter
        (fun reason ->
          let b = Ground_truth.byte_of_result (mk outcome reason) in
          Alcotest.(check bool)
            (Printf.sprintf "byte %d decodes to same outcome" (Char.code b))
            true
            (Ground_truth.outcome_of_byte b = outcome);
          let expected_reason =
            match (outcome, reason) with
            | Runner.Crash, None -> Some Ctx.Exception_raised (* generic crash byte *)
            | Runner.Crash, r -> r
            | _, _ -> None
          in
          Alcotest.(check bool)
            (Printf.sprintf "byte %d decodes to same reason" (Char.code b))
            true
            (Ground_truth.crash_reason_of_byte b = expected_reason))
        reasons)
    [
      (Runner.Masked, all_reasons);
      (Runner.Sdc, all_reasons);
      (Runner.Crash, all_reasons);
    ];
  Alcotest.check_raises "byte 6 rejected"
    (Invalid_argument "Ground_truth: corrupt outcome byte 6") (fun () ->
      ignore (Ground_truth.outcome_of_byte '\006'))

let test_taxonomy_recorded_in_campaign () =
  (* The guarded program crashes whenever the flip makes its single value
     non-finite, and the classifier records whether NaN or Inf reached the
     output — so both reasons must show up in the campaign tallies. *)
  let g = Golden.run (Helpers.guarded_program ()) in
  let gt = Ground_truth.run g in
  let c = Ground_truth.crash_counts gt in
  Alcotest.(check bool) "some crashes" true (c.Ground_truth.nan + c.Ground_truth.inf > 0);
  Alcotest.(check int) "no fuel crashes without a budget" 0 c.Ground_truth.fuel;
  let total = c.Ground_truth.nan + c.Ground_truth.inf + c.Ground_truth.exn + c.Ground_truth.fuel in
  let m = ref 0 and s = ref 0 and cr = ref 0 in
  Ground_truth.counts gt ~masked:m ~sdc:s ~crash:cr;
  Alcotest.(check int) "taxonomy total matches crash count" !cr total

(* ------------------------------------------------------------------ *)
(* Fuel watchdog                                                       *)

let test_fuel_terminates_diverging_program () =
  (* Flipping bit 52 of the recorded factor turns 0.5 into 1.0: x never
     drops below 1 and the loop only ends when the watchdog fires. *)
  let g = Lazy.force diverging in
  let r =
    Runner.run_outcome_custom_contained ~fuel:10_000 g ~site:0
      ~corrupt:(Ftb_util.Bits.flip ~bit:52)
  in
  Alcotest.(check bool) "outcome is crash" true (r.Runner.outcome = Runner.Crash);
  Alcotest.(check bool) "reason is fuel exhaustion" true
    (r.Runner.crash_reason = Some Ctx.Fuel_exhausted)

let test_fuel_campaign_classifies_divergence () =
  let g = Lazy.force diverging in
  let gt = Ground_truth.run ~fuel:10_000 g in
  let c = Ground_truth.crash_counts gt in
  Alcotest.(check bool) "some cases exhaust fuel" true (c.Ground_truth.fuel > 0);
  (* The golden run itself converges well inside the budget, so in-range
     small flips must still be able to mask. *)
  Alcotest.(check bool) "not everything crashes" true
    (Ground_truth.masked_ratio gt > 0.)

let test_generous_fuel_changes_nothing () =
  let g = Lazy.force golden in
  let free = Ground_truth.run g in
  let budgeted = Ground_truth.run ~fuel:1_000_000 g in
  Alcotest.(check bytes) "identical outcome bytes" free.Ground_truth.outcomes
    budgeted.Ground_truth.outcomes

(* ------------------------------------------------------------------ *)
(* Checkpoint persistence                                              *)

let test_checkpoint_save_load_roundtrip () =
  let g = Lazy.force golden in
  let path = tmp "roundtrip" in
  let gt = Ground_truth.run g in
  let state = Checkpoint.create g ~shard_size:5 in
  Bytes.blit gt.Ground_truth.outcomes 0 state.Checkpoint.outcomes 0
    (Bytes.length state.Checkpoint.outcomes);
  (* mark all but the last shard complete *)
  let n = Checkpoint.shards state in
  Array.fill state.Checkpoint.completed 0 (n - 1) true;
  Checkpoint.save ~path state;
  Alcotest.(check bool) "no temp file left" false (Sys.file_exists (path ^ ".tmp"));
  let loaded = Checkpoint.load ~path ~shard_size:5 g in
  Alcotest.(check int) "completed shards" (n - 1) (Checkpoint.completed_count loaded);
  Alcotest.(check bool) "not complete" false (Checkpoint.is_complete loaded);
  Alcotest.(check bytes) "outcome bytes preserved" state.Checkpoint.outcomes
    loaded.Checkpoint.outcomes;
  Sys.remove path

let test_checkpoint_rejects_other_program () =
  let g = Lazy.force golden in
  let path = tmp "wrong_program" in
  let state = Checkpoint.create g ~shard_size:5 in
  Checkpoint.save ~path state;
  let other = Golden.run (Helpers.guarded_program ()) in
  (match Checkpoint.load ~path ~shard_size:5 other with
  | _ -> Alcotest.fail "checkpoint for another program accepted"
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "error names the path" true (contains ~needle:path msg));
  Sys.remove path

let test_checkpoint_rejects_stale_fingerprint () =
  (* Replace the stored golden fingerprint inside the payload and rewrap
     it in a fresh (valid) envelope: the integrity check passes, so it
     must be the semantic fingerprint check that rejects, naming the path
     and header line. *)
  let g = Lazy.force golden in
  let path = tmp "fingerprint" in
  Checkpoint.save ~path (Checkpoint.create g ~shard_size:5);
  let payload = Persist.load_enveloped ~path in
  let nl = String.index payload '\n' in
  let header = String.sub payload 0 nl in
  let rest = String.sub payload nl (String.length payload - nl) in
  let header =
    String.concat " "
      (List.mapi
         (fun i field -> if i = 4 then String.make (String.length field) '0' else field)
         (String.split_on_char ' ' header))
  in
  Persist.save_enveloped ~path (fun b ->
      Buffer.add_string b header;
      Buffer.add_string b rest);
  (match Checkpoint.load ~path ~shard_size:5 g with
  | _ -> Alcotest.fail "stale fingerprint accepted"
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "error names path and line" true
        (contains ~needle:(path ^ ":1") msg));
  Sys.remove path

(* A format nothing writes any more is a typed error naming its magic;
   the engine's Restart policy then quarantines it and rebuilds the
   campaign bit-identically. [write path] lays the old bytes down. *)
let check_unsupported_then_rebuilt ~name ~magic write =
  let g = Lazy.force golden in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_campaign_%s_%d" name (Unix.getpid ()))
  in
  Persist.mkdir_p dir;
  let path = Filename.concat dir "checkpoint" in
  write g path;
  (match Checkpoint.load ~path ~shard_size:5 g with
  | _ -> Alcotest.fail (magic ^ " accepted")
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "error names the unsupported magic" true
        (contains ~needle:magic msg));
  let config =
    { Engine.default_config with Engine.shard_size = 5; on_invalid_checkpoint = Engine.Restart }
  in
  let report = Engine.run ~config ~checkpoint:path g in
  Alcotest.(check bool) "old file quarantined" true (report.Engine.quarantined <> None);
  Alcotest.(check int) "nothing resumed from it" 0 report.Engine.resumed_shards;
  Alcotest.(check bytes) "rebuilt campaign is bit-identical"
    (Ground_truth.run g).Ground_truth.outcomes
    report.Engine.ground_truth.Ground_truth.outcomes;
  Sys.remove path;
  Option.iter Sys.remove report.Engine.quarantined;
  Unix.rmdir (Filename.concat dir "quarantine");
  Unix.rmdir dir

let write_bytes path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_ground_truth_file_unsupported () =
  (* The text ground-truth format: header, then the raw outcome bytes. *)
  check_unsupported_then_rebuilt ~name:"gt_file" ~magic:"ftb-ground-truth-v2" (fun g path ->
      write_bytes path
        (Printf.sprintf "ftb-ground-truth-v2 %s %d\n%s"
           g.Golden.program.Ftb_trace.Program.name (Golden.sites g)
           (Bytes.to_string (Ground_truth.run g).Ground_truth.outcomes)))

let test_bare_checkpoint_unsupported () =
  (* A checkpoint payload without its envelope. *)
  check_unsupported_then_rebuilt ~name:"bare" ~magic:"ftb-campaign-v3" (fun g path ->
      let state = Checkpoint.create g ~shard_size:5 in
      Array.fill state.Checkpoint.completed 0 1 true;
      Checkpoint.save ~path state;
      write_bytes path (Persist.load_enveloped ~path))

let test_corrupt_checkpoint_quarantined_and_rebuilt () =
  (* A byte flip inside a checkpoint must be detected on load; under
     [Restart] the engine quarantines the evidence and rebuilds, and the
     campaign still converges to the direct run's exact bytes. *)
  let g = Lazy.force golden in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_campaign_corrupt_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "checkpoint" in
  let state = Checkpoint.create g ~shard_size:5 in
  Array.fill state.Checkpoint.completed 0 2 true;
  Checkpoint.save ~path state;
  (* Flip one byte somewhere in the payload. *)
  let ic = open_in_bin path in
  let raw = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let victim = Bytes.length raw - 3 in
  Bytes.set raw victim (Char.chr (Char.code (Bytes.get raw victim) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc raw;
  close_out oc;
  (* Fail-fast policy still surfaces the corruption... *)
  (match Checkpoint.load ~path ~shard_size:5 g with
  | _ -> Alcotest.fail "flipped checkpoint byte accepted"
  | exception Persist.Format_error _ -> ());
  (* ...and the Restart policy quarantines and rebuilds from scratch. *)
  let config =
    { Engine.default_config with Engine.shard_size = 5;
      on_invalid_checkpoint = Engine.Restart }
  in
  let report = Engine.run ~config ~checkpoint:path g in
  let quarantined =
    match report.Engine.quarantined with
    | Some dest -> dest
    | None -> Alcotest.fail "corrupt checkpoint was not quarantined"
  in
  Alcotest.(check bool) "evidence preserved in quarantine/" true
    (Sys.file_exists quarantined
    && Filename.basename (Filename.dirname quarantined) = "quarantine");
  Alcotest.(check int) "nothing resumed from the corpse" 0
    report.Engine.resumed_shards;
  let direct = Ground_truth.run g in
  Alcotest.(check bytes) "rebuilt campaign is bit-identical"
    direct.Ground_truth.outcomes
    report.Engine.ground_truth.Ground_truth.outcomes;
  rm dir

(* ------------------------------------------------------------------ *)
(* Engine: checkpoint / resume                                         *)

let engine_config ~shard_size ~domains =
  { Engine.default_config with Engine.shard_size; domains }

let run_interrupted ~after ~shard_size g path =
  (* Kill the campaign (by raising out of the checkpoint callback) after
     [after] checkpoints; the file on disk keeps the last atomic state.
     Returns whether the interrupt actually fired — a tiny campaign can
     finish before its [after]-th checkpoint. *)
  let written = ref 0 in
  let config =
    {
      (engine_config ~shard_size ~domains:1) with
      Engine.on_checkpoint =
        Some
          (fun ~shards_done:_ ~shards_total:_ ->
            incr written;
            if !written >= after then raise Interrupted);
    }
  in
  match Engine.run ~config ~checkpoint:path g with
  | _ -> false
  | exception Interrupted -> true

let check_resume_bit_identical ~after ~shard_size ~domains () =
  let g = Lazy.force golden in
  let path = tmp (Printf.sprintf "resume_%d_%d_%d" after shard_size domains) in
  let reference = Ground_truth.run g in
  Alcotest.(check bool) "interrupt fired" true (run_interrupted ~after ~shard_size g path);
  let resumed = Checkpoint.load ~path ~shard_size g in
  Alcotest.(check bool) "interrupt left a partial campaign" true
    (Checkpoint.completed_count resumed > 0
    && not (Checkpoint.is_complete resumed));
  let report =
    Engine.run ~config:(engine_config ~shard_size ~domains) ~checkpoint:path g
  in
  Alcotest.(check bool) "resume skipped completed shards" true
    (report.Engine.resumed_shards > 0);
  Alcotest.(check int) "all shards accounted for" report.Engine.total_shards
    (report.Engine.resumed_shards + report.Engine.executed_shards);
  Alcotest.(check bytes) "bit-identical to uninterrupted campaign"
    reference.Ground_truth.outcomes
    report.Engine.ground_truth.Ground_truth.outcomes;
  Sys.remove path

let test_resume_serial () = check_resume_bit_identical ~after:2 ~shard_size:7 ~domains:1 ()
let test_resume_parallel () =
  check_resume_bit_identical ~after:1 ~shard_size:13 ~domains:3 ()

(* ------------------------------------------------------------------ *)
(* Persist-format v3: the fault model in the header; v2 is unsupported *)

module Models = Ftb_inject.Models

let rewrap_as_v2 path =
  (* Rewrite a freshly saved (v3, default-model) checkpoint into the
     byte-exact pre-model v2 format: the v2 magic and no model field,
     re-wrapped in a fresh valid envelope. *)
  let payload = Persist.load_enveloped ~path in
  let nl = String.index payload '\n' in
  let header = String.sub payload 0 nl in
  let rest = String.sub payload nl (String.length payload - nl) in
  let header =
    match String.split_on_char ' ' header with
    | [ _magic; program; sites; shard_size; _model; fingerprint ] ->
        String.concat " "
          [ "ftb-campaign-v2"; program; sites; shard_size; fingerprint ]
    | fields ->
        Alcotest.fail
          (Printf.sprintf "unexpected v3 header arity %d" (List.length fields))
  in
  Persist.save_enveloped ~path (fun b ->
      Buffer.add_string b header;
      Buffer.add_string b rest)

let test_v2_checkpoint_unsupported () =
  check_unsupported_then_rebuilt ~name:"v2" ~magic:"ftb-campaign-v2" (fun g path ->
      Checkpoint.save ~path (Checkpoint.create g ~shard_size:5);
      rewrap_as_v2 path)

let test_v2_checkpoint_rejected_for_other_model () =
  (* Resuming a v2 file under any model, here bit-flip-32, is a typed
     error naming the unsupported format. *)
  let g = Lazy.force golden in
  let path = tmp "v2_mismatch" in
  Checkpoint.save ~path (Checkpoint.create g ~shard_size:5);
  rewrap_as_v2 path;
  let requested = { Models.model = Models.Bit_flip_32; seed = 0 } in
  (match Checkpoint.load ~model:requested ~path ~shard_size:5 g with
  | _ -> Alcotest.fail "v2 checkpoint accepted for bit-flip-32"
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "error names the v2 magic" true
        (contains ~needle:"ftb-campaign-v2" msg));
  Sys.remove path

let test_v3_nondefault_model_roundtrip () =
  let g = Lazy.force golden in
  let spec = { Models.model = Models.Bit_flip_32; seed = 0 } in
  let path = tmp "v3_model" in
  let state = Checkpoint.create ~model:spec g ~shard_size:5 in
  Ftb_inject.Executor.range_into_model spec g ~lo:0 ~hi:10 state.Checkpoint.outcomes
    ~off:0;
  Array.fill state.Checkpoint.completed 0 2 true;
  Checkpoint.save ~path state;
  let loaded = Checkpoint.load ~model:spec ~path ~shard_size:5 g in
  Alcotest.(check bool) "model preserved" true
    (Models.spec_equal spec loaded.Checkpoint.model);
  Alcotest.(check int) "completed shards preserved" 2
    (Checkpoint.completed_count loaded);
  Alcotest.(check bytes) "outcome bytes preserved" state.Checkpoint.outcomes
    loaded.Checkpoint.outcomes;
  (* Loading it as the default model must fail, naming both. *)
  (match Checkpoint.load ~path ~shard_size:5 g with
  | _ -> Alcotest.fail "bit-flip-32 checkpoint accepted as default"
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "mismatch names both models" true
        (contains ~needle:"bit-flip-32" msg && contains ~needle:"bit-flip-64" msg));
  Sys.remove path

let test_corrupt_v3_checkpoint_quarantined () =
  (* The quarantine-and-rebuild path under a non-default model: a flipped
     byte is detected, the evidence survives, and the rebuilt campaign
     matches the direct model-aware run byte for byte. *)
  let g = Lazy.force golden in
  let spec = { Models.model = Models.Adjacent_burst_2; seed = 0 } in
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_campaign_v3corrupt_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "checkpoint" in
  Checkpoint.save ~path (Checkpoint.create ~model:spec g ~shard_size:5);
  let ic = open_in_bin path in
  let raw = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let victim = Bytes.length raw - 3 in
  Bytes.set raw victim (Char.chr (Char.code (Bytes.get raw victim) lxor 0x40));
  let oc = open_out_bin path in
  output_bytes oc raw;
  close_out oc;
  (match Checkpoint.load ~model:spec ~path ~shard_size:5 g with
  | _ -> Alcotest.fail "flipped v3 byte accepted"
  | exception Persist.Format_error _ -> ());
  let config =
    {
      (engine_config ~shard_size:5 ~domains:1) with
      Engine.model = spec;
      on_invalid_checkpoint = Engine.Restart;
    }
  in
  let report = Engine.run ~config ~checkpoint:path g in
  Alcotest.(check bool) "quarantined" true (report.Engine.quarantined <> None);
  let direct = Ftb_inject.Executor.ground_truth_model ~domains:1 spec g in
  Alcotest.(check bytes) "rebuilt model campaign is bit-identical"
    direct.Ground_truth.outcomes
    report.Engine.ground_truth.Ground_truth.outcomes;
  rm dir

let resume_roundtrip =
  QCheck.Test.make ~name:"interrupt after k checkpoints, resume, bit-identical" ~count:15
    QCheck.(pair (int_range 1 5) (int_range 1 40))
    (fun (after, shard_size) ->
      let g = Lazy.force golden in
      let path = tmp (Printf.sprintf "qc_resume_%d_%d" after shard_size) in
      let reference = Ground_truth.run g in
      ignore (run_interrupted ~after ~shard_size g path);
      let report =
        Engine.run ~config:(engine_config ~shard_size ~domains:1) ~checkpoint:path g
      in
      let ok =
        Bytes.equal reference.Ground_truth.outcomes
          report.Engine.ground_truth.Ground_truth.outcomes
      in
      if Sys.file_exists path then Sys.remove path;
      ok)

let test_engine_serial_matches_parallel () =
  let g = Lazy.force golden in
  let serial = Engine.run ~config:(engine_config ~shard_size:9 ~domains:1) g in
  let parallel = Engine.run ~config:(engine_config ~shard_size:9 ~domains:4) g in
  Alcotest.(check bytes) "identical bytes"
    serial.Engine.ground_truth.Ground_truth.outcomes
    parallel.Engine.ground_truth.Ground_truth.outcomes

let test_engine_matches_plain_campaign_paths () =
  let g = Lazy.force golden in
  let engine = Engine.run ~config:(engine_config ~shard_size:11 ~domains:2) g in
  let serial = Ground_truth.run g in
  let parallel =
    Ftb_inject.Executor.ground_truth_model ~domains:2 Ftb_inject.Models.default_spec g
  in
  Alcotest.(check bytes) "engine = serial Ground_truth.run"
    serial.Ground_truth.outcomes engine.Engine.ground_truth.Ground_truth.outcomes;
  Alcotest.(check bytes) "engine = pooled Executor.ground_truth_model"
    parallel.Ground_truth.outcomes engine.Engine.ground_truth.Ground_truth.outcomes

(* ------------------------------------------------------------------ *)
(* Engine: progress and cooperative cancellation                       *)

let test_progress_counts_are_consistent () =
  let g = Lazy.force golden in
  let events = ref [] in
  let config =
    {
      (engine_config ~shard_size:5 ~domains:1) with
      Engine.progress = Some (fun p -> events := p :: !events);
    }
  in
  let report = Engine.run ~config g in
  let events = List.rev !events in
  Alcotest.(check bool) "at least one event per wave" true (List.length events > 0);
  List.iter
    (fun (p : Engine.progress) ->
      Alcotest.(check int) "masked + sdc + crash = cases_done" p.Engine.cases_done
        (p.Engine.masked + p.Engine.sdc + p.Engine.crash);
      Alcotest.(check int) "total is the case space" p.Engine.cases_total
        (Bytes.length report.Engine.ground_truth.Ground_truth.outcomes))
    events;
  (* monotone, and the last event covers the whole space *)
  ignore
    (List.fold_left
       (fun prev (p : Engine.progress) ->
         Alcotest.(check bool) "cases_done is monotone" true (p.Engine.cases_done >= prev);
         p.Engine.cases_done)
       0 events);
  let last = List.nth events (List.length events - 1) in
  Alcotest.(check int) "final event is complete" last.Engine.cases_total
    last.Engine.cases_done

let test_cancel_checkpoints_and_resumes () =
  let g = Lazy.force golden in
  let path = tmp "cancelled" in
  let reference = Ground_truth.run g in
  let waves = ref 0 in
  let config =
    {
      (engine_config ~shard_size:4 ~domains:1) with
      Engine.progress = Some (fun _ -> incr waves);
      cancel = Some (fun () -> !waves >= 2);
    }
  in
  (match Engine.run ~config ~checkpoint:path g with
  | _ -> Alcotest.fail "cancel callback ignored"
  | exception Engine.Cancelled -> ());
  let state = Checkpoint.load ~path ~shard_size:4 g in
  Alcotest.(check bool) "cancel left a resumable partial checkpoint" true
    (Checkpoint.completed_count state > 0 && not (Checkpoint.is_complete state));
  let report =
    Engine.run ~config:(engine_config ~shard_size:4 ~domains:1) ~checkpoint:path g
  in
  Alcotest.(check bool) "resume skipped the cancelled prefix" true
    (report.Engine.resumed_shards > 0);
  Alcotest.(check bytes) "bit-identical after cancel + resume"
    reference.Ground_truth.outcomes
    report.Engine.ground_truth.Ground_truth.outcomes;
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Engine: crash isolation and retries                                 *)

let test_engine_retries_flaky_shard () =
  let g = Lazy.force golden in
  let failed_once = ref false in
  let case_runner golden case =
    if case = 20 && not !failed_once then begin
      failed_once := true;
      failwith "transient worker failure"
    end;
    Ground_truth.case_byte_model Ftb_inject.Models.default_spec golden case
  in
  let report =
    Engine.run ~config:(engine_config ~shard_size:6 ~domains:1) ~case_runner g
  in
  let reference = Ground_truth.run g in
  Alcotest.(check int) "one retry" 1 report.Engine.retries;
  Alcotest.(check bytes) "retried shard converges to the truth"
    reference.Ground_truth.outcomes
    report.Engine.ground_truth.Ground_truth.outcomes

let test_engine_gives_up_after_retry_budget () =
  let g = Lazy.force golden in
  let path = tmp "gave_up" in
  let attempts = ref 0 in
  let case_runner golden case =
    if case >= 12 && case < 18 then begin
      incr attempts;
      failwith "persistent worker failure"
    end;
    Ground_truth.case_byte_model Ftb_inject.Models.default_spec golden case
  in
  let config =
    { (engine_config ~shard_size:6 ~domains:1) with Engine.max_retries = 2 }
  in
  (match Engine.run ~config ~checkpoint:path ~case_runner g with
  | _ -> Alcotest.fail "persistently failing shard did not raise"
  | exception Engine.Shard_failed { shard; attempts = a; _ } ->
      Alcotest.(check int) "failing shard identified" 2 shard;
      Alcotest.(check int) "budget spent" 3 a);
  (* the final checkpoint preserves every healthy shard for a later resume *)
  let state = Checkpoint.load ~path ~shard_size:6 g in
  Alcotest.(check bool) "healthy shards checkpointed" true
    (Checkpoint.completed_count state > 0);
  Sys.remove path

let test_contained_runner_records_exception_crash () =
  (* An exception escaping the kernel body must classify as a crash with
     the exception reason instead of aborting the campaign. *)
  let g = Lazy.force golden in
  let boom_runner _golden _case = raise Division_by_zero in
  match
    Engine.run
      ~config:{ (engine_config ~shard_size:4 ~domains:1) with Engine.max_retries = 0 }
      ~case_runner:boom_runner g
  with
  | _ -> Alcotest.fail "shard failure swallowed"
  | exception Engine.Shard_failed { message; _ } ->
      Alcotest.(check bool) "exception surfaced in the report" true
        (contains ~needle:"Division_by_zero" message)

let suite =
  [
    Alcotest.test_case "shard bounds" `Quick test_shard_bounds;
    Helpers.qcheck_to_alcotest shard_cover;
    Alcotest.test_case "taxonomy bytes round-trip" `Quick test_taxonomy_bytes_roundtrip;
    Alcotest.test_case "taxonomy recorded in campaign" `Quick
      test_taxonomy_recorded_in_campaign;
    Alcotest.test_case "fuel terminates diverging program" `Quick
      test_fuel_terminates_diverging_program;
    Alcotest.test_case "fuel campaign classifies divergence" `Quick
      test_fuel_campaign_classifies_divergence;
    Alcotest.test_case "generous fuel changes nothing" `Quick
      test_generous_fuel_changes_nothing;
    Alcotest.test_case "checkpoint save/load round-trip" `Quick
      test_checkpoint_save_load_roundtrip;
    Alcotest.test_case "checkpoint rejects other program" `Quick
      test_checkpoint_rejects_other_program;
    Alcotest.test_case "checkpoint rejects stale fingerprint" `Quick
      test_checkpoint_rejects_stale_fingerprint;
    Alcotest.test_case "ground-truth file is a typed error, then rebuilt" `Quick
      test_ground_truth_file_unsupported;
    Alcotest.test_case "bare checkpoint is a typed error, then rebuilt" `Quick
      test_bare_checkpoint_unsupported;
    Alcotest.test_case "corrupt checkpoint quarantined and rebuilt" `Quick
      test_corrupt_checkpoint_quarantined_and_rebuilt;
    Alcotest.test_case "resume serial" `Quick test_resume_serial;
    Alcotest.test_case "resume parallel" `Quick test_resume_parallel;
    Alcotest.test_case "v2 checkpoint is a typed error, then rebuilt" `Quick
      test_v2_checkpoint_unsupported;
    Alcotest.test_case "v2 checkpoint rejected for other model" `Quick
      test_v2_checkpoint_rejected_for_other_model;
    Alcotest.test_case "v3 non-default model round-trip" `Quick
      test_v3_nondefault_model_roundtrip;
    Alcotest.test_case "corrupt v3 checkpoint quarantined" `Quick
      test_corrupt_v3_checkpoint_quarantined;
    Helpers.qcheck_to_alcotest resume_roundtrip;
    Alcotest.test_case "engine serial = parallel" `Quick
      test_engine_serial_matches_parallel;
    Alcotest.test_case "engine = plain campaign paths" `Quick
      test_engine_matches_plain_campaign_paths;
    Alcotest.test_case "progress counts are consistent" `Quick
      test_progress_counts_are_consistent;
    Alcotest.test_case "cancel checkpoints and resumes" `Quick
      test_cancel_checkpoints_and_resumes;
    Alcotest.test_case "engine retries flaky shard" `Quick test_engine_retries_flaky_shard;
    Alcotest.test_case "engine gives up after retry budget" `Quick
      test_engine_gives_up_after_retry_budget;
    Alcotest.test_case "shard failure message preserved" `Quick
      test_contained_runner_records_exception_crash;
  ]
