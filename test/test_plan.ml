(* The distributed adaptive planner and the servable boundary store:
   engine ≡ serial oracle (bytes), kill/resume at round granularity,
   checkpoint hygiene, and store round-trips / quarantine / warm-start
   invariance. *)

module Adaptive = Ftb_core.Adaptive
module AE = Ftb_plan.Adaptive_engine
module RC = Ftb_plan.Round_checkpoint
module BS = Ftb_plan.Boundary_store
module Boundary = Ftb_core.Boundary
module Golden = Ftb_trace.Golden
module Fault = Ftb_trace.Fault
module Runner = Ftb_trace.Runner
module Models = Ftb_inject.Models
module Sample_run = Ftb_inject.Sample_run
module Rng = Ftb_util.Rng

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let small_config =
  { Adaptive.default_config with Adaptive.round_fraction = 0.02; max_rounds = 50 }

let tmp name =
  let path = Filename.concat (Filename.get_temp_dir_name ()) ("ftb_plan_" ^ name) in
  if Sys.file_exists path then Sys.remove path;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let tmp_store name =
  let root = Filename.concat (Filename.get_temp_dir_name ()) ("ftb_bstore_" ^ name) in
  rm_rf root;
  (root, BS.open_ ~root)

(* Bit-exact comparison: the whole point of the planner is that no
   execution path may perturb a single bit of the serial oracle. *)
let check_same_result msg (a : Adaptive.result) (b : Adaptive.result) =
  Alcotest.(check int) (msg ^ ": rounds") a.Adaptive.rounds b.Adaptive.rounds;
  Alcotest.(check string)
    (msg ^ ": stop reason")
    (Adaptive.stop_reason_to_string a.Adaptive.stop_reason)
    (Adaptive.stop_reason_to_string b.Adaptive.stop_reason);
  Alcotest.(check int)
    (msg ^ ": sample count")
    (Array.length a.Adaptive.samples)
    (Array.length b.Adaptive.samples);
  Array.iteri
    (fun i sa ->
      let sb = b.Adaptive.samples.(i) in
      Alcotest.(check int)
        (Printf.sprintf "%s: sample %d case" msg i)
        (Fault.to_case sa.Sample_run.fault)
        (Fault.to_case sb.Sample_run.fault);
      Alcotest.(check bool)
        (Printf.sprintf "%s: sample %d outcome" msg i)
        true
        (Runner.outcome_equal sa.Sample_run.outcome sb.Sample_run.outcome))
    a.Adaptive.samples;
  let sites = Boundary.sites a.Adaptive.boundary in
  Alcotest.(check int) (msg ^ ": boundary sites") sites
    (Boundary.sites b.Adaptive.boundary);
  for i = 0 to sites - 1 do
    Alcotest.(check int64)
      (Printf.sprintf "%s: threshold %d bytes" msg i)
      (Int64.bits_of_float (Boundary.threshold a.Adaptive.boundary i))
      (Int64.bits_of_float (Boundary.threshold b.Adaptive.boundary i))
  done

(* ------------------------------------------------------------------ *)
(* Engine ≡ serial oracle                                              *)

let test_engine_matches_serial_oracle () =
  let g = Lazy.force golden in
  let oracle = Adaptive.run_model ~config:small_config (Rng.create ~seed:11) g in
  let result, stats = AE.run ~config:small_config ~name:"lin" ~seed:11 g in
  check_same_result "engine vs Adaptive.run_model" oracle result;
  Alcotest.(check int) "all samples fresh" (Array.length result.Adaptive.samples)
    stats.AE.fresh_samples;
  Alcotest.(check int) "nothing resumed" 0 stats.AE.resumed_samples

let test_engine_exec_order_independent () =
  (* An exec that executes the round back-to-front but returns samples in
     draw order must not change a byte — outcomes are pure functions of
     (golden, model, case). This is the property that lets a fleet run
     rounds anywhere. *)
  let g = Lazy.force golden in
  let spec = Models.default_spec in
  let exec ~round:_ ~cases =
    let n = Array.length cases in
    let out = Array.make n None in
    for i = n - 1 downto 0 do
      out.(i) <- Some (Sample_run.run_case_model spec g cases.(i))
    done;
    Array.map Option.get out
  in
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:12 g in
  let result, _ = AE.run ~config:small_config ~exec ~name:"lin" ~seed:12 g in
  check_same_result "reversed exec vs in-order exec" oracle result

(* ------------------------------------------------------------------ *)
(* Kill / resume                                                       *)

let test_cancel_then_resume_bit_identical () =
  let g = Lazy.force golden in
  let ckpt = tmp "resume.ckpt" in
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:13 g in
  (* Cancel at the edge after the first round folds. *)
  let folded = ref 0 in
  (match
     AE.run ~config:small_config ~checkpoint:ckpt
       ~on_round:(fun ~round:_ ~drawn:_ ~masked:_ ~sdc:_ ~crash:_ -> incr folded)
       ~cancel:(fun () -> !folded >= 1)
       ~name:"lin" ~seed:13 g
   with
  | exception AE.Cancelled -> ()
  | _ -> Alcotest.fail "cancel ignored");
  Alcotest.(check bool) "checkpoint written before Cancelled" true
    (Sys.file_exists ckpt);
  let result, stats = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:13 g in
  check_same_result "resumed vs undisturbed" oracle result;
  Alcotest.(check bool) "resume actually inherited rounds" true
    (stats.AE.resumed_rounds >= 1);
  Alcotest.(check int) "fresh + resumed partition the samples"
    (Array.length result.Adaptive.samples)
    (stats.AE.fresh_samples + stats.AE.resumed_samples);
  Sys.remove ckpt

let test_finished_checkpoint_short_circuits () =
  let g = Lazy.force golden in
  let ckpt = tmp "finished.ckpt" in
  let first, _ = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:14 g in
  let again, stats = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:14 g in
  check_same_result "replayed vs original" first again;
  Alcotest.(check int) "replay executes nothing" 0 stats.AE.fresh_samples;
  Sys.remove ckpt

let test_mismatched_checkpoint_ignored () =
  let g = Lazy.force golden in
  let ckpt = tmp "mismatch.ckpt" in
  let _ = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:15 g in
  (* Same path, different campaign identity (seed): the stale checkpoint
     must be ignored, not spliced into the wrong campaign. *)
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:16 g in
  let result, stats = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:16 g in
  check_same_result "fresh run despite stale checkpoint" oracle result;
  Alcotest.(check int) "nothing resumed across identities" 0 stats.AE.resumed_samples;
  Sys.remove ckpt

let test_corrupt_checkpoint_quarantined () =
  let g = Lazy.force golden in
  let ckpt = tmp "corrupt.ckpt" in
  let oc = open_out_bin ckpt in
  output_string oc "not an envelope at all\n";
  close_out oc;
  let oracle, _ = AE.run ~config:small_config ~name:"lin" ~seed:17 g in
  let result, _ = AE.run ~config:small_config ~checkpoint:ckpt ~name:"lin" ~seed:17 g in
  check_same_result "cold start after corruption" oracle result;
  Sys.remove ckpt

let test_round_checkpoint_roundtrip () =
  let g = Lazy.force golden in
  let r = Adaptive.run ~config:small_config (Rng.create ~seed:18) g in
  let path = tmp "rc.ckpt" in
  let state =
    {
      RC.name = "lin";
      sites = Golden.sites g;
      spec = Models.default_spec;
      fuel = Some 4096;
      fingerprint = Ftb_util.Fingerprint.of_floats g.Golden.values;
      config = small_config;
      seed = 18;
      rng_state = 0xDEAD_BEEFL;
      rounds = r.Adaptive.rounds;
      samples = r.Adaptive.samples;
      (* An in-flight checkpoint: a pending draw and no stop reason —
         finished checkpoints (stop set) must not carry a pending round
         and the loader enforces it. *)
      pending = Some [| 3; 1; 4; 1; 5 |];
      stop = None;
    }
  in
  RC.save ~path state;
  let back = RC.load ~path in
  Alcotest.(check string) "name" state.RC.name back.RC.name;
  Alcotest.(check int) "rounds" state.RC.rounds back.RC.rounds;
  Alcotest.(check int) "seed" state.RC.seed back.RC.seed;
  Alcotest.(check int64) "rng state" state.RC.rng_state back.RC.rng_state;
  Alcotest.(check (option (array int))) "pending draw" state.RC.pending back.RC.pending;
  Alcotest.(check int) "samples" (Array.length state.RC.samples)
    (Array.length back.RC.samples);
  Array.iteri
    (fun i sa ->
      Alcotest.(check int)
        (Printf.sprintf "sample %d case" i)
        (Fault.to_case sa.Sample_run.fault)
        (Fault.to_case back.RC.samples.(i).Sample_run.fault))
    state.RC.samples;
  (match back.RC.stop with
  | None -> ()
  | Some _ -> Alcotest.fail "stop reason invented");
  (* And the finished shape round-trips its stop reason. *)
  RC.save ~path { state with RC.pending = None; stop = Some Adaptive.Converged };
  (match (RC.load ~path).RC.stop with
  | Some Adaptive.Converged -> ()
  | _ -> Alcotest.fail "stop reason lost");
  (* A sample that propagates past the campaign's sites is a typed
     error: its pairs would index outside the boundary. *)
  let masked = Array.find_opt (fun (s : Sample_run.t) -> s.Sample_run.propagation <> None) r.Adaptive.samples in
  let masked = Option.get masked in
  let sites = Golden.sites g in
  RC.save ~path
    {
      state with
      RC.samples =
        [| { masked with Sample_run.propagation = Some ([| 0; sites |], [| 0.5; 0.5 |]) } |];
      rounds = 0;
      pending = None;
    };
  (match RC.load ~path with
  | _ -> Alcotest.fail "a propagation site past the campaign's sites loaded"
  | exception Ftb_inject.Persist.Format_error msg ->
      Alcotest.(check bool) "error names the site" true
        (Helpers.contains msg (Printf.sprintf "site %d of %d" sites sites)));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The append-only round log                                           *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data)

(* Frame start offsets of a round log (after its magic line), and the
   offset one past the last frame. *)
let frames data =
  let first = String.length "ftb-adaptive-log-v2\n" in
  let rec go pos acc =
    if pos >= String.length data then (List.rev acc, pos)
    else
      let len = Int32.to_int (String.get_int32_be data (pos + 1)) in
      go (pos + 13 + len) (pos :: acc)
  in
  go first []

(* A finished campaign's log, and the undisturbed result it records. *)
let finished_log name ~seed =
  let g = Lazy.force golden in
  let path = tmp name in
  let result, _ = AE.run ~config:small_config ~checkpoint:path ~name:"lin" ~seed g in
  (result, read_file path)

let test_round_log_torn_tail () =
  (* A crash mid-append leaves the last record cut short at any byte.
     Cut every record of a finished log at every offset inside it: the
     loader drops the torn record, and the resumed campaign is still
     bit-identical to the serial oracle. *)
  let g = Lazy.force golden in
  let oracle = Adaptive.run_model ~config:small_config (Rng.create ~seed:19) g in
  let _, data = finished_log "torn_src.ckpt" ~seed:19 in
  let starts, eof = frames data in
  let path = tmp "torn.ckpt" in
  let ends = List.tl starts @ [ eof ] in
  List.iteri
    (fun i (start, stop) ->
      if i > 0 then begin
        write_file path (String.sub data 0 start);
        let before = RC.load ~path in
        for cut = start + 1 to stop - 1 do
          write_file path (String.sub data 0 cut);
          let loaded = RC.load ~path in
          Alcotest.(check int)
            (Printf.sprintf "cut at %d: torn record dropped" cut)
            before.RC.rounds loaded.RC.rounds;
          let result, stats =
            AE.run ~config:small_config ~checkpoint:path ~name:"lin" ~seed:19 g
          in
          check_same_result (Printf.sprintf "cut at %d" cut) oracle result;
          Alcotest.(check int)
            (Printf.sprintf "cut at %d: resumed, not restarted" cut)
            (Array.length before.RC.samples) stats.AE.resumed_samples
        done
      end)
    (List.combine starts ends);
  Sys.remove path

let test_round_log_mid_corruption () =
  (* A flipped byte anywhere before the last record is corruption, not a
     torn tail: a typed Format_error, whichever byte it is. *)
  let _, data = finished_log "flip_src.ckpt" ~seed:20 in
  let starts, _ = frames data in
  let last = List.nth starts (List.length starts - 1) in
  let path = tmp "flip.ckpt" in
  for pos = 0 to last - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string data in
        Bytes.set b pos (Char.chr (Char.code data.[pos] lxor mask));
        write_file path (Bytes.to_string b);
        match RC.load ~path with
        | _ -> Alcotest.failf "flip 0x%02x at byte %d of %d loaded" mask pos last
        | exception Ftb_inject.Persist.Format_error _ -> ())
      [ 0x01; 0x80 ]
  done;
  Sys.remove path

let test_round_log_write_size () =
  (* Counted in bytes: between two draws the log grows by one round's
     samples blob and the next draw's cases plus fixed framing — never
     by the campaign so far. *)
  let g = Lazy.force golden in
  let path = tmp "size.ckpt" in
  let spec = Models.default_spec in
  let sizes = ref [] and rounds = ref [] in
  let exec ~round:_ ~cases =
    sizes := (Unix.stat path).Unix.st_size :: !sizes;
    let samples = Array.map (Sample_run.run_case_model spec g) cases in
    rounds := samples :: !rounds;
    samples
  in
  let result, _ = AE.run ~config:small_config ~checkpoint:path ~exec ~name:"lin" ~seed:21 g in
  let sizes = Array.of_list (List.rev !sizes) and rounds = Array.of_list (List.rev !rounds) in
  Alcotest.(check bool) "several rounds" true (Array.length rounds >= 3);
  let framing = 2 * 13 in
  for r = 0 to Array.length rounds - 2 do
    let blob = String.length (Ftb_inject.Sample_codec.encode rounds.(r)) in
    let draw = 8 * (1 + Array.length rounds.(r + 1)) in
    Alcotest.(check int)
      (Printf.sprintf "round %d appends its samples and the next draw" (r + 1))
      (blob + draw + framing)
      (sizes.(r + 1) - sizes.(r))
  done;
  Alcotest.(check int) "every round executed" (Array.length rounds) result.Adaptive.rounds;
  Sys.remove path

(* A frame as the log's format defines it, checksummed by the byte-wise
   reference CRC. *)
let reference_frame kind payload =
  let be32 n =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 (Int32.of_int n);
    Bytes.to_string b
  in
  let head = String.make 1 kind ^ be32 (String.length payload) in
  head ^ be32 (Helpers.crc32_bytewise head) ^ payload ^ be32 (Helpers.crc32_bytewise payload)

let test_round_log_bytewise_reference () =
  (* Every frame of a finished log, re-framed with the byte-wise CRC, is
     the same bytes: a log written before the CRC was sliced loads
     unchanged. *)
  let _, data = finished_log "bytewise_src.ckpt" ~seed:22 in
  let starts, eof = frames data in
  let ends = List.tl starts @ [ eof ] in
  let magic = String.sub data 0 (List.hd starts) in
  let reframed =
    magic
    ^ String.concat ""
        (List.map2
           (fun start stop ->
             reference_frame data.[start] (String.sub data (start + 9) (stop - start - 13)))
           starts ends)
  in
  Alcotest.(check string) "same log bytes" data reframed;
  let path = tmp "bytewise.ckpt" in
  write_file path reframed;
  let loaded = RC.load ~path in
  Alcotest.(check bool) "finished" true (loaded.RC.stop <> None);
  Sys.remove path

let test_round_log_append_frames () =
  (* Appends frame in place; the bytes are a frame of the codec's blob. *)
  let g = Lazy.force golden in
  let spec = Models.default_spec in
  let samples = Array.map (Sample_run.run_case_model spec g) [| 3; 70; 130; 200; 447 |] in
  let t =
    {
      RC.name = "lin";
      sites = Golden.sites g;
      spec;
      fuel = None;
      fingerprint = Ftb_util.Fingerprint.of_floats g.Golden.values;
      config = small_config;
      seed = 4;
      rng_state = 0x1234L;
      rounds = 0;
      samples = [||];
      pending = None;
      stop = None;
    }
  in
  let path = tmp "append.ckpt" in
  let log = RC.open_log ~path t in
  let size () = (Unix.stat path).Unix.st_size in
  let appended f =
    let before = size () in
    f ();
    String.sub (read_file path) before (size () - before)
  in
  let cases = Array.map (fun (s : Sample_run.t) -> Fault.to_case s.Sample_run.fault) samples in
  let draw = appended (fun () -> RC.append_draw log ~rng_state:0x55L cases) in
  let payload = Bytes.create (8 * (Array.length cases + 1)) in
  Bytes.set_int64_le payload 0 0x55L;
  Array.iteri (fun i c -> Bytes.set_int64_le payload (8 * (i + 1)) (Int64.of_int c)) cases;
  Alcotest.(check string) "draw frame" (reference_frame 'D' (Bytes.to_string payload)) draw;
  (* Twice: the second append reuses, and the big one grows, the buffer. *)
  let round = appended (fun () -> RC.append_round log samples) in
  Alcotest.(check string) "round frame"
    (reference_frame 'R' (Ftb_inject.Sample_codec.encode samples))
    round;
  let stop = appended (fun () -> RC.append_stop log Adaptive.Converged) in
  Alcotest.(check string) "stop frame" (reference_frame 'E' "converged") stop;
  RC.close_log log;
  let big = Array.concat (List.init 200 (fun _ -> samples)) in
  let log = RC.open_log ~path t in
  ignore (appended (fun () -> RC.append_draw log ~rng_state:0x56L cases));
  let round = appended (fun () -> RC.append_round log big) in
  RC.close_log log;
  Alcotest.(check string) "grown round frame"
    (reference_frame 'R' (Ftb_inject.Sample_codec.encode big))
    round;
  Sys.remove path

(* The old v1 writer, kept to lay down its bytes: one enveloped text
   snapshot, samples as hex. *)
let save_v1 ~path (t : RC.t) =
  let hex s = String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s))) in
  Ftb_inject.Persist.save_enveloped ~path (fun buf ->
      Printf.bprintf buf "ftb-adaptive-v1 %s %d %s %s %s %h %h %d %d %d %d %Lx %d %s\n" t.RC.name
        t.RC.sites
        (Models.spec_to_string t.RC.spec)
        (match t.RC.fuel with None -> "none" | Some n -> string_of_int n)
        t.RC.fingerprint t.RC.config.Adaptive.round_fraction
        t.RC.config.Adaptive.stop_sdc_fraction t.RC.config.Adaptive.max_rounds
        (if t.RC.config.Adaptive.filter then 1 else 0)
        (if t.RC.config.Adaptive.bias then 1 else 0)
        t.RC.seed t.RC.rng_state t.RC.rounds
        (match t.RC.stop with None -> "-" | Some r -> Adaptive.stop_reason_to_string r);
      Printf.bprintf buf "samples %s\n" (hex (Ftb_inject.Sample_codec.encode t.RC.samples));
      Option.iter
        (fun cases ->
          Printf.bprintf buf "pending %d%s\n" (Array.length cases)
            (String.concat "" (Array.to_list (Array.map (Printf.sprintf " %d") cases))))
        t.RC.pending)

let test_round_log_v1_snapshot_unsupported () =
  (* A v1 snapshot is an unsupported format: loading it is a typed error
     naming its magic, and the engine quarantines it and restarts cold,
     still bit-identical to the serial oracle. *)
  let g = Lazy.force golden in
  let oracle = Adaptive.run_model ~config:small_config (Rng.create ~seed:22) g in
  let log = tmp "v1_src.ckpt" in
  let folded = ref 0 in
  (match
     AE.run ~config:small_config ~checkpoint:log
       ~on_round:(fun ~round:_ ~drawn:_ ~masked:_ ~sdc:_ ~crash:_ -> incr folded)
       ~cancel:(fun () -> !folded >= 2)
       ~name:"lin" ~seed:22 g
   with
  | exception AE.Cancelled -> ()
  | _ -> Alcotest.fail "cancel ignored");
  let dir = tmp (Printf.sprintf "v1_%d" (Unix.getpid ())) in
  Ftb_inject.Persist.mkdir_p dir;
  let path = Filename.concat dir "v1.ckpt" in
  save_v1 ~path (RC.load ~path:log);
  (match RC.load ~path with
  | _ -> Alcotest.fail "v1 snapshot accepted"
  | exception Ftb_inject.Persist.Format_error msg ->
      Alcotest.(check bool) "error names the v1 magic" true
        (Helpers.contains msg "ftb-adaptive-v1"));
  let result, stats = AE.run ~config:small_config ~checkpoint:path ~name:"lin" ~seed:22 g in
  check_same_result "restarted cold" oracle result;
  Alcotest.(check int) "nothing resumed from the v1 snapshot" 0 stats.AE.resumed_samples;
  let quarantined = Filename.concat (Filename.concat dir "quarantine") "v1.ckpt" in
  Alcotest.(check bool) "v1 snapshot quarantined" true (Sys.file_exists quarantined);
  List.iter Sys.remove [ log; path; quarantined ];
  Unix.rmdir (Filename.concat dir "quarantine");
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Boundary store                                                      *)

let entry_of ?(seed = 21) ?(created = 1000.) ?(prov = BS.prov_local) g =
  let r = Adaptive.run_model ~config:small_config (Rng.create ~seed) g in
  BS.entry_of_result ~prov ~bench:"lin" ~spec:Models.default_spec ~fuel:None
    ~config:small_config ~seed ~created g r

let test_store_put_find_roundtrip () =
  let g = Lazy.force golden in
  let _, store = tmp_store "roundtrip" in
  let entry = entry_of g in
  BS.put store entry;
  match BS.find store ~key:entry.BS.key with
  | None -> Alcotest.fail "stored entry not found by key"
  | Some back ->
      Alcotest.(check string) "bench" entry.BS.bench back.BS.bench;
      Alcotest.(check string) "fingerprint" entry.BS.fingerprint back.BS.fingerprint;
      Alcotest.(check int) "sites" entry.BS.sites back.BS.sites;
      Alcotest.(check int) "rounds" entry.BS.rounds back.BS.rounds;
      Alcotest.(check int) "samples" entry.BS.samples back.BS.samples;
      Alcotest.(check int) "masked" entry.BS.masked back.BS.masked;
      Alcotest.(check int) "sdc" entry.BS.sdc back.BS.sdc;
      Alcotest.(check int) "crash" entry.BS.crash back.BS.crash;
      Alcotest.(check int) "tallies partition samples" entry.BS.samples
        (back.BS.masked + back.BS.sdc + back.BS.crash);
      Array.iteri
        (fun i t ->
          Alcotest.(check int64)
            (Printf.sprintf "threshold %d bytes" i)
            (Int64.bits_of_float t)
            (Int64.bits_of_float back.BS.thresholds.(i)))
        entry.BS.thresholds;
      Alcotest.(check (array int)) "support" entry.BS.support back.BS.support;
      Alcotest.(check int64) "uncertainty bytes"
        (Int64.bits_of_float entry.BS.uncertainty)
        (Int64.bits_of_float back.BS.uncertainty)

(* Daemons once leased adaptive rounds to workers and stamped the entry
   with the compose [fleet:*] token. Nothing writes it now; stored entries
   that carry it still load, token intact. *)
let test_store_fleet_provenance_still_loads () =
  let g = Lazy.force golden in
  let _, store = tmp_store "fleet-prov" in
  List.iter
    (fun prov ->
      let entry = entry_of ~prov ~seed:(String.length prov) g in
      BS.put store entry;
      match BS.find store ~key:entry.BS.key with
      | Some back -> Alcotest.(check string) "provenance token" prov back.BS.prov
      | None -> Alcotest.fail ("entry with provenance " ^ prov ^ " not found"))
    [ "fleet:audited:w1,w2"; "fleet:unaudited:w3" ]

let test_store_key_is_campaign_identity () =
  let g = Lazy.force golden in
  let fingerprint = Ftb_util.Fingerprint.of_floats g.Golden.values in
  let key seed config =
    BS.key_of ~bench:"lin" ~fingerprint ~spec:Models.default_spec ~fuel:None ~config
      ~seed
  in
  Alcotest.(check string) "key is deterministic" (key 1 small_config)
    (key 1 small_config);
  Alcotest.(check bool) "seed is part of the identity" true
    (key 1 small_config <> key 2 small_config);
  Alcotest.(check bool) "config is part of the identity" true
    (key 1 small_config
    <> key 1 { small_config with Adaptive.round_fraction = 0.03 })

let test_store_find_latest_and_gc () =
  let g = Lazy.force golden in
  let _, store = tmp_store "latest" in
  BS.put store (entry_of ~seed:31 ~created:10. g);
  BS.put store (entry_of ~seed:32 ~created:30. g);
  BS.put store (entry_of ~seed:33 ~created:20. g);
  (match BS.find_latest store ~bench:"lin" () with
  | Some e -> Alcotest.(check int) "newest entry wins" 32 e.BS.seed
  | None -> Alcotest.fail "find_latest missed");
  Alcotest.(check int) "list sees all" 3 (List.length (BS.list store));
  Alcotest.(check int) "gc removes the old" 2 (BS.gc store ~keep:1);
  (match BS.list store with
  | [ survivor ] -> Alcotest.(check int) "gc keeps the newest" 32 survivor.BS.seed
  | l -> Alcotest.fail (Printf.sprintf "gc left %d entries" (List.length l)));
  Alcotest.(check bool) "negative keep rejected" true
    (match BS.gc store ~keep:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_store_corrupt_entry_quarantined () =
  let g = Lazy.force golden in
  let _, store = tmp_store "quarantine" in
  let entry = entry_of g in
  BS.put store entry;
  let path = BS.path_of_key store entry.BS.key in
  let oc = open_out_bin path in
  output_string oc "garbage overwriting the envelope\n";
  close_out oc;
  (match BS.find store ~key:entry.BS.key with
  | None -> ()
  | Some _ -> Alcotest.fail "corrupt entry served");
  Alcotest.(check bool) "corpse moved to quarantine" true
    ((BS.stats store).BS.quarantined > 0);
  (* The store heals: a re-put of the same campaign serves again. *)
  BS.put store entry;
  Alcotest.(check bool) "re-put heals the store" true
    (BS.find store ~key:entry.BS.key <> None)

let test_store_find_latest_skips_corrupt_newest () =
  (* The newest entry of a kernel is corrupt, an older one is valid: the
     first lookup already answers with the older one. *)
  let g = Lazy.force golden in
  let _, store = tmp_store "latest_corrupt" in
  let older = entry_of ~seed:41 ~created:10. g in
  let newer = entry_of ~seed:42 ~created:20. g in
  BS.put store older;
  BS.put store newer;
  let path = BS.path_of_key store newer.BS.key in
  let oc = open_out_bin path in
  output_string oc "garbage overwriting the envelope\n";
  close_out oc;
  (match BS.find_latest store ~bench:"lin" () with
  | Some e -> Alcotest.(check int) "the older valid entry answers" 41 e.BS.seed
  | None -> Alcotest.fail "find_latest gave up on a kernel with a valid entry");
  Alcotest.(check int) "the corrupt one was quarantined" 1 (BS.stats store).BS.quarantined;
  match BS.find_latest store ~bench:"lin" () with
  | Some e -> Alcotest.(check int) "and keeps answering" 41 e.BS.seed
  | None -> Alcotest.fail "second lookup missed"

let test_store_site_count_bounded () =
  (* A header announcing far more sites than the entry has lines is
     refused before anything is sized by it. *)
  let g = Lazy.force golden in
  let _, store = tmp_store "site_bound" in
  let entry = entry_of g in
  BS.put store entry;
  let path = BS.path_of_key store entry.BS.key in
  let payload = Ftb_inject.Persist.load_enveloped ~path in
  let nl = String.index payload '\n' in
  (* Header field 12 is the site count. *)
  let header =
    String.split_on_char ' ' (String.sub payload 0 nl)
    |> List.mapi (fun i field -> if i = 12 then "400000000" else field)
    |> String.concat " "
  in
  Ftb_inject.Persist.save_enveloped ~path (fun b ->
      Buffer.add_string b header;
      Buffer.add_string b (String.sub payload nl (String.length payload - nl)));
  let words () = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
  let before = words () in
  Alcotest.(check bool) "inflated site count refused" true
    (BS.find store ~key:entry.BS.key = None);
  let allocated = words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "refused without a large allocation (%.0f words)" allocated)
    true (allocated < 1e6)

let test_warm_start_never_changes_boundary () =
  (* The warm-start contract: serving a stored entry for the exact
     campaign identity must equal re-running the campaign cold — same
     threshold bytes, same tallies, zero drift across the store hop. *)
  let g = Lazy.force golden in
  let _, store = tmp_store "warm" in
  let entry = entry_of ~seed:41 g in
  BS.put store entry;
  let cold = Adaptive.run_model ~config:small_config (Rng.create ~seed:41) g in
  match BS.find store ~key:entry.BS.key with
  | None -> Alcotest.fail "warm entry missing"
  | Some warm ->
      Alcotest.(check int) "rounds" cold.Adaptive.rounds warm.BS.rounds;
      Alcotest.(check int) "samples" (Array.length cold.Adaptive.samples) warm.BS.samples;
      Alcotest.(check string) "stop reason"
        (Adaptive.stop_reason_to_string cold.Adaptive.stop_reason)
        (Adaptive.stop_reason_to_string warm.BS.stop);
      Array.iteri
        (fun i t ->
          Alcotest.(check int64)
            (Printf.sprintf "threshold %d bytes" i)
            (Int64.bits_of_float (Boundary.threshold cold.Adaptive.boundary i))
            (Int64.bits_of_float t))
        warm.BS.thresholds

(* ------------------------------------------------------------------ *)
(* QCheck properties                                                   *)

let prop_store_query_agrees_with_model =
  (* For any in-range (site, bit), [query] must classify exactly as the
     stored thresholds do on the model's corruption of the stored golden
     value — the zero-execution answer is the boundary's answer. *)
  let g = Lazy.force golden in
  let entry = entry_of ~seed:51 g in
  let width = Models.spec_width entry.BS.spec in
  QCheck.Test.make ~name:"store query agrees with the stored boundary" ~count:200
    QCheck.(pair (int_bound (entry.BS.sites - 1)) (int_bound (width - 1)))
    (fun (site, bit) ->
      let p = BS.query entry ~site ~bit in
      let v = entry.BS.golden_values.(site) in
      let corrupted = Models.case_corrupt entry.BS.spec ~case:((site * width) + bit) v in
      let err = abs_float (corrupted -. v) in
      let err = if Float.is_nan err then infinity else err in
      let expect = if err <= entry.BS.thresholds.(site) then `Masked else `Sdc in
      p.BS.outcome = expect
      && p.BS.threshold = entry.BS.thresholds.(site)
      && p.BS.site_support = entry.BS.support.(site))

let prop_store_query_rejects_out_of_range =
  let g = Lazy.force golden in
  let entry = entry_of ~seed:52 g in
  let width = Models.spec_width entry.BS.spec in
  QCheck.Test.make ~name:"store query rejects out-of-range cases" ~count:50
    QCheck.(pair small_nat small_nat)
    (fun (ds, db) ->
      let bad ~site ~bit =
        match BS.query entry ~site ~bit with
        | exception Invalid_argument _ -> true
        | _ -> false
      in
      bad ~site:(entry.BS.sites + ds) ~bit:0
      && bad ~site:(-1 - ds) ~bit:0
      && bad ~site:0 ~bit:(width + db)
      && bad ~site:0 ~bit:(-1 - db))

let prop_store_roundtrip_random_campaigns =
  (* Any seed's converged campaign survives the store byte-for-byte. *)
  let g = Lazy.force golden in
  let _, store = tmp_store "prop_roundtrip" in
  QCheck.Test.make ~name:"store round-trips any campaign bit-exactly" ~count:10
    QCheck.(int_bound 10_000)
    (fun seed ->
      let entry = entry_of ~seed ~created:(float_of_int seed) g in
      BS.put store entry;
      match BS.find store ~key:entry.BS.key with
      | None -> false
      | Some back ->
          back.BS.rounds = entry.BS.rounds
          && back.BS.samples = entry.BS.samples
          && back.BS.seed = entry.BS.seed
          && Array.for_all2
               (fun a b -> Int64.bits_of_float a = Int64.bits_of_float b)
               entry.BS.thresholds back.BS.thresholds
          && back.BS.support = entry.BS.support)

let suite =
  [
    Alcotest.test_case "engine matches serial oracle" `Quick
      test_engine_matches_serial_oracle;
    Alcotest.test_case "exec order independence" `Quick
      test_engine_exec_order_independent;
    Alcotest.test_case "cancel then resume is bit-identical" `Quick
      test_cancel_then_resume_bit_identical;
    Alcotest.test_case "finished checkpoint short-circuits" `Quick
      test_finished_checkpoint_short_circuits;
    Alcotest.test_case "mismatched checkpoint ignored" `Quick
      test_mismatched_checkpoint_ignored;
    Alcotest.test_case "corrupt checkpoint quarantined" `Quick
      test_corrupt_checkpoint_quarantined;
    Alcotest.test_case "round log: torn tail resumes bit-identical" `Quick
      test_round_log_torn_tail;
    Alcotest.test_case "round log: mid-log corruption is a Format_error" `Quick
      test_round_log_mid_corruption;
    Alcotest.test_case "round log: a round appends only its own bytes" `Quick
      test_round_log_write_size;
    Alcotest.test_case "round log: v1 snapshot is a typed error, restarts cold" `Quick
      test_round_log_v1_snapshot_unsupported;
    Alcotest.test_case "round log: byte-wise crc reference loads" `Quick
      test_round_log_bytewise_reference;
    Alcotest.test_case "round log: appended frames" `Quick test_round_log_append_frames;
    Alcotest.test_case "round checkpoint round-trip" `Quick
      test_round_checkpoint_roundtrip;
    Alcotest.test_case "store put/find round-trip" `Quick test_store_put_find_roundtrip;
    Alcotest.test_case "stored fleet provenance still loads" `Quick
      test_store_fleet_provenance_still_loads;
    Alcotest.test_case "key is the campaign identity" `Quick
      test_store_key_is_campaign_identity;
    Alcotest.test_case "find_latest and gc" `Quick test_store_find_latest_and_gc;
    Alcotest.test_case "corrupt entry quarantined" `Quick
      test_store_corrupt_entry_quarantined;
    Alcotest.test_case "find_latest skips a corrupt newest entry" `Quick
      test_store_find_latest_skips_corrupt_newest;
    Alcotest.test_case "entry site count bounded by its lines" `Quick
      test_store_site_count_bounded;
    Alcotest.test_case "warm start never changes the boundary" `Quick
      test_warm_start_never_changes_boundary;
    Helpers.qcheck_to_alcotest prop_store_query_agrees_with_model;
    Helpers.qcheck_to_alcotest prop_store_query_rejects_out_of_range;
    Helpers.qcheck_to_alcotest prop_store_roundtrip_random_campaigns;
  ]
