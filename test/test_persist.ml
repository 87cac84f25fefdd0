module Persist = Ftb_inject.Persist
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run
module Sample_codec = Ftb_inject.Sample_codec
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ()) ("ftb_persist_" ^ name)

(* A finished campaign's durable form is a complete checkpoint; samples'
   is the Sample_codec blob (framed in the adaptive round log). *)

let test_ground_truth_roundtrip () =
  let g = Lazy.force golden in
  let gt = Ground_truth.run g in
  let path = temp_path "gt" in
  Helpers.save_complete ~path gt;
  let loaded = Helpers.load_complete ~path g in
  for case = 0 to Ground_truth.cases gt - 1 do
    Alcotest.(check bool) "identical outcomes" true
      (Runner.outcome_equal (Ground_truth.outcome gt case) (Ground_truth.outcome loaded case))
  done;
  Alcotest.(check bytes) "identical outcome bytes" gt.Ground_truth.outcomes
    loaded.Ground_truth.outcomes;
  Sys.remove path

let test_ground_truth_program_mismatch () =
  let g = Lazy.force golden in
  let path = temp_path "gt_mismatch" in
  Helpers.save_complete ~path (Ground_truth.run g);
  let other = Golden.run (Helpers.nonmonotonic_program ()) in
  (match Helpers.load_complete ~path other with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "mismatched program accepted");
  Sys.remove path

let test_ground_truth_truncation_detected () =
  let g = Lazy.force golden in
  let path = temp_path "gt_trunc" in
  Helpers.save_complete ~path (Ground_truth.run g);
  (* Truncate the file. *)
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic - 10) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  (match Helpers.load_complete ~path g with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "truncated file accepted");
  Sys.remove path

let check_samples_roundtrip samples =
  let loaded = Sample_codec.decode (Sample_codec.encode samples) in
  Alcotest.(check int) "same count" (Array.length samples) (Array.length loaded);
  Array.iteri
    (fun i s ->
      Alcotest.(check bool)
        (Printf.sprintf "sample %d bit-identical (fault, outcome, errors, propagation)" i)
        true
        (Helpers.sample_bits_equal s loaded.(i)))
    samples;
  loaded

let test_samples_roundtrip () =
  let g = Lazy.force golden in
  let rng = Ftb_util.Rng.create ~seed:5 in
  let cases = Sample_run.draw_uniform rng g ~fraction:0.2 in
  let samples = Sample_run.run_cases g cases in
  Alcotest.(check bool) "some sample carries propagation" true
    (Array.exists (fun (s : Sample_run.t) -> s.Sample_run.propagation <> None) samples);
  ignore (check_samples_roundtrip samples : Sample_run.t array)

let test_samples_with_nonfinite_errors () =
  (* Crash samples carry infinity; the codec must round-trip it. *)
  let g = Lazy.force golden in
  (* bit 62 of site 0 (value 1.0) -> non-finite injection. *)
  let samples = [| Helpers.run_case g ((0 * 64) + 62) |] in
  Helpers.check_close "sanity: infinite injected error" infinity
    samples.(0).Sample_run.injected_error;
  let loaded = check_samples_roundtrip samples in
  Helpers.check_close "infinity preserved" infinity loaded.(0).Sample_run.injected_error

let test_garbage_rejected () =
  let path = temp_path "garbage" in
  let oc = open_out path in
  output_string oc "not a campaign file\n";
  close_out oc;
  (match Helpers.load_complete ~path (Lazy.force golden) with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted as a campaign");
  (match Sample_codec.decode "not a campaign file\n" with
  | exception Sample_codec.Format_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted as samples");
  Sys.remove path

let test_sample_count_bounded () =
  (* One valid sample, its count patched: the decoder must refuse the
     count from the blob's length, before allocating for it. *)
  let g = Lazy.force golden in
  let blob = Sample_codec.encode [| Helpers.run_case g 3 |] in
  List.iter
    (fun count ->
      let patched = Bytes.of_string blob in
      Bytes.set_int32_le patched 5 count;
      let before = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words in
      (match Sample_codec.decode (Bytes.to_string patched) with
      | _ -> Alcotest.fail "patched count accepted"
      | exception Sample_codec.Format_error msg ->
          Alcotest.(check bool) "error names the count" true
            (Helpers.contains msg (Int32.to_string count)));
      let allocated = Gc.minor_words () +. (Gc.quick_stat ()).Gc.major_words -. before in
      Alcotest.(check bool)
        (Printf.sprintf "count %ld rejected without a large allocation (%.0f words)" count
           allocated)
        true (allocated < 10_000.))
    [ 50_000_000l; Int32.max_int ]

let test_sparse_pairs_validated () =
  (* A masked sample's pairs must ascend strictly and carry positive,
     non-NaN deviations; anything else is a typed error, and a blob of
     the retired dense layout names its magic. *)
  let masked pairs =
    {
      Sample_run.fault = Ftb_trace.Fault.make ~site:2 ~bit:3;
      outcome = Ftb_trace.Runner.Masked;
      crash_reason = None;
      injected_error = 0.5;
      propagation = Some pairs;
    }
  in
  let good = masked ([| 2; 3; 9 |], [| 0.5; 1e-300; infinity |]) in
  ignore (check_samples_roundtrip [| good |] : Sample_run.t array);
  Alcotest.(check int) "12 bytes per pair" (15 + 4 + (3 * 12))
    (String.length (Sample_codec.encode [| good |]) - 9);
  let rejects what pairs needle =
    match Sample_codec.decode (Sample_codec.encode [| masked pairs |]) with
    | _ -> Alcotest.failf "%s accepted" what
    | exception Sample_codec.Format_error msg ->
        Alcotest.(check bool) (what ^ ": typed error") true (Helpers.contains msg needle)
  in
  rejects "repeated site" ([| 2; 2 |], [| 0.5; 0.5 |]) "ascending";
  rejects "descending sites" ([| 3; 2 |], [| 0.5; 0.5 |]) "ascending";
  rejects "negative site" ([| -1 |], [| 0.5 |]) "negative";
  rejects "zero deviation" ([| 2; 3 |], [| 0.5; 0. |]) "deviation";
  rejects "negative deviation" ([| 2 |], [| -0.5 |]) "deviation";
  rejects "NaN deviation" ([| 2 |], [| Float.nan |]) "deviation";
  let s2 = Sample_codec.encode [| good |] in
  match Sample_codec.decode ("ftbS1" ^ String.sub s2 5 (String.length s2 - 5)) with
  | _ -> Alcotest.fail "dense ftbS1 blob accepted"
  | exception Sample_codec.Format_error msg ->
      Alcotest.(check bool) "error names the retired magic" true (Helpers.contains msg "ftbS1")

(* ------------------------------------------------------------------ *)
(* Integrity envelope                                                  *)

let test_crc32_known_vectors () =
  (* Reference values from the IEEE 802.3 polynomial (zlib's crc32). *)
  List.iter
    (fun (input, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "crc32 %S" input)
        expected (Persist.crc32 input))
    [
      ("", 0);
      ("a", 0xE8B7BE43);
      ("abc", 0x352441C2);
      ("123456789", 0xCBF43926);
      (String.make 32 '\000', 0x190A55AD);
    ]

let test_crc32_matches_bytewise () =
  (* Slicing-by-8 against the byte-at-a-time oracle: every length 0-300
     at every alignment 0-7, so every tail length and word phase. *)
  let rng = Ftb_util.Rng.create ~seed:12 in
  let data = String.init 320 (fun _ -> Char.chr (Ftb_util.Rng.int rng 256)) in
  Alcotest.(check int) "check value" 0xCBF43926 (Persist.crc32 "123456789");
  for pos = 0 to 7 do
    for len = 0 to 300 do
      let sub = String.sub data pos len in
      let want = Helpers.crc32_bytewise sub in
      if Persist.crc32 sub <> want || Persist.crc32_sub data ~pos ~len <> want then
        Alcotest.failf "crc32 differs from the byte-wise loop at offset %d, length %d" pos len
    done
  done;
  Alcotest.check_raises "range outside the string" (Invalid_argument "Persist.crc32_sub")
    (fun () -> ignore (Persist.crc32_sub data ~pos:300 ~len:21))

let test_envelope_bytewise_reference () =
  (* A checkpoint enveloped with the byte-wise CRC is the same file, and
     loads unchanged. *)
  let g = Lazy.force golden in
  let gt = Ground_truth.run g in
  let path = temp_path "bytewise_envelope" in
  Helpers.save_complete ~path gt;
  let written = In_channel.with_open_bin path In_channel.input_all in
  let payload = Persist.load_enveloped ~path in
  let reference =
    Printf.sprintf "ftb-envelope-v1 %d %08x\n%s" (String.length payload)
      (Helpers.crc32_bytewise payload) payload
  in
  Alcotest.(check string) "same envelope bytes" reference written;
  Out_channel.with_open_bin path (fun oc -> output_string oc reference);
  let back = Helpers.load_complete ~path g in
  Alcotest.(check bool) "loads unchanged" true
    (Bytes.equal back.Ground_truth.outcomes gt.Ground_truth.outcomes);
  Sys.remove path

let test_envelope_roundtrip () =
  let path = temp_path "envelope" in
  let payload = "line one\nbinary \000\001\255 tail" in
  Persist.save_enveloped ~path (fun b -> Buffer.add_string b payload);
  Alcotest.(check string) "payload round-trips" payload (Persist.load_enveloped ~path);
  Sys.remove path

let envelope_bytes path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rewrite path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_envelope_detects_flipped_byte () =
  let path = temp_path "envelope_flip" in
  Persist.save_enveloped ~path (fun b -> Buffer.add_string b "precious outcome bytes");
  let raw = envelope_bytes path in
  (* Flip one payload byte (past the header line). *)
  let header_end = String.index raw '\n' in
  let victim = header_end + 5 in
  let flipped = Bytes.of_string raw in
  Bytes.set flipped victim (Char.chr (Char.code (Bytes.get flipped victim) lxor 0x10));
  rewrite path (Bytes.to_string flipped);
  (match Persist.load_enveloped ~path with
  | _ -> Alcotest.fail "flipped byte accepted"
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "error mentions checksum" true
        (Helpers.contains msg "checksum"));
  Sys.remove path

let test_envelope_detects_truncation () =
  let path = temp_path "envelope_trunc" in
  Persist.save_enveloped ~path (fun b -> Buffer.add_string b (String.make 64 'x'));
  let raw = envelope_bytes path in
  rewrite path (String.sub raw 0 (String.length raw - 7));
  (match Persist.load_enveloped ~path with
  | _ -> Alcotest.fail "truncated artifact accepted"
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "error mentions truncation" true
        (Helpers.contains msg "truncated"));
  Sys.remove path

let test_envelope_refuses_unwrapped_bytes () =
  (* Bytes without the envelope header — a pre-envelope artifact, say a
     text ground-truth file — are a typed error naming the format they
     announce, and the verify-or-quarantine load moves them aside. *)
  let dir = temp_path (Printf.sprintf "unwrapped_%d" (Unix.getpid ())) in
  Persist.mkdir_p dir;
  let path = Filename.concat dir "artifact" in
  rewrite path "ftb-ground-truth-v2 linear 4\nabcd";
  (match Persist.load_enveloped ~path with
  | _ -> Alcotest.fail "unwrapped bytes accepted"
  | exception Persist.Format_error msg ->
      Alcotest.(check bool) "error names the format" true
        (Helpers.contains msg "ftb-ground-truth-v2"));
  Alcotest.(check bool) "load_or_quarantine reports a miss" true
    (Persist.load_or_quarantine ~path (fun path -> Persist.load_enveloped ~path) = None);
  Alcotest.(check bool) "evidence moved to quarantine/" true
    ((not (Sys.file_exists path))
    && Sys.file_exists (Filename.concat (Filename.concat dir "quarantine") "artifact"));
  Alcotest.(check bool) "a missing file is a plain miss" true
    (Persist.load_or_quarantine ~path (fun _ -> Alcotest.fail "loaded a missing file")
    = None);
  Sys.remove (Filename.concat (Filename.concat dir "quarantine") "artifact");
  Unix.rmdir (Filename.concat dir "quarantine");
  Unix.rmdir dir

let test_quarantine_moves_and_numbers () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_persist_quarantine_%d" (Unix.getpid ()))
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
  let path = Filename.concat dir "artifact" in
  let quarantined n =
    rewrite path (Printf.sprintf "corrupt generation %d" n);
    match Persist.quarantine ~path with
    | Some dest -> dest
    | None -> Alcotest.fail "quarantine failed on an existing file"
  in
  let first = quarantined 0 in
  let second = quarantined 1 in
  Alcotest.(check bool) "original path freed" false (Sys.file_exists path);
  Alcotest.(check bool) "evidence preserved" true (Sys.file_exists first);
  Alcotest.(check bool) "second corruption gets its own name" true
    (first <> second && Sys.file_exists second);
  Alcotest.(check string) "first generation untouched" "corrupt generation 0"
    (envelope_bytes first);
  Alcotest.(check bool) "missing path is a no-op" true
    (Persist.quarantine ~path:(Filename.concat dir "never-existed") = None);
  rm dir

let test_atomic_write_failure_leaves_no_tmp () =
  (* A failure inside the writer must unlink the temp file... *)
  let path = temp_path "atomic_raise" in
  (match Persist.with_out_atomic path (fun _ -> failwith "disk on fire") with
  | () -> Alcotest.fail "failing writer succeeded"
  | exception Failure _ -> ());
  Alcotest.(check bool) "no tmp after writer failure" false
    (Sys.file_exists (path ^ ".tmp"));
  Alcotest.(check bool) "no target after writer failure" false (Sys.file_exists path);
  (* ...and so must a failure *after* the writer, between temp-file
     creation and rename: renaming a file onto an existing directory
     fails, which models any rename-stage error. *)
  let dir = temp_path "atomic_rename_dir" in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  (match Persist.with_out_atomic dir (fun oc -> output_string oc "payload") with
  | () -> Alcotest.fail "rename onto a directory succeeded"
  | exception Sys_error _ -> ());
  Alcotest.(check bool) "no tmp after rename failure" false
    (Sys.file_exists (dir ^ ".tmp"));
  Unix.rmdir dir

let suite =
  [
    Alcotest.test_case "ground truth roundtrip" `Quick test_ground_truth_roundtrip;
    Alcotest.test_case "program mismatch" `Quick test_ground_truth_program_mismatch;
    Alcotest.test_case "truncation detected" `Quick test_ground_truth_truncation_detected;
    Alcotest.test_case "samples roundtrip" `Quick test_samples_roundtrip;
    Alcotest.test_case "non-finite errors roundtrip" `Quick
      test_samples_with_nonfinite_errors;
    Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
    Alcotest.test_case "sample count bounded by the blob" `Quick test_sample_count_bounded;
    Alcotest.test_case "sparse pairs validated" `Quick test_sparse_pairs_validated;
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_known_vectors;
    Alcotest.test_case "crc32 = byte-wise loop" `Quick test_crc32_matches_bytewise;
    Alcotest.test_case "envelope by the byte-wise crc loads" `Quick
      test_envelope_bytewise_reference;
    Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip;
    Alcotest.test_case "envelope detects flipped byte" `Quick
      test_envelope_detects_flipped_byte;
    Alcotest.test_case "envelope detects truncation" `Quick
      test_envelope_detects_truncation;
    Alcotest.test_case "envelope refuses unwrapped bytes" `Quick
      test_envelope_refuses_unwrapped_bytes;
    Alcotest.test_case "quarantine moves and numbers" `Quick
      test_quarantine_moves_and_numbers;
    Alcotest.test_case "atomic write failure leaves no tmp" `Quick
      test_atomic_write_failure_leaves_no_tmp;
  ]
