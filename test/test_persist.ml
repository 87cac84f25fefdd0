module Persist = Ftb_inject.Persist
module Ground_truth = Ftb_inject.Ground_truth
module Sample_run = Ftb_inject.Sample_run
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ()) ("ftb_persist_" ^ name)

let contains_sub haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i = i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1)) in
  scan 0

let test_ground_truth_roundtrip () =
  let g = Lazy.force golden in
  let gt = Ground_truth.run g in
  let path = temp_path "gt" in
  Persist.save_ground_truth ~path gt;
  let loaded = Persist.load_ground_truth ~path g in
  for case = 0 to Ground_truth.cases gt - 1 do
    Alcotest.(check bool) "identical outcomes" true
      (Runner.outcome_equal (Ground_truth.outcome gt case) (Ground_truth.outcome loaded case))
  done;
  Sys.remove path

let test_ground_truth_program_mismatch () =
  let g = Lazy.force golden in
  let gt = Ground_truth.run g in
  let path = temp_path "gt_mismatch" in
  Persist.save_ground_truth ~path gt;
  let other = Golden.run (Helpers.nonmonotonic_program ()) in
  (match Persist.load_ground_truth ~path other with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "mismatched program accepted");
  Sys.remove path

let test_ground_truth_truncation_detected () =
  let g = Lazy.force golden in
  let gt = Ground_truth.run g in
  let path = temp_path "gt_trunc" in
  Persist.save_ground_truth ~path gt;
  (* Truncate the file. *)
  let ic = open_in_bin path in
  let contents = really_input_string ic (in_channel_length ic - 10) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  (match Persist.load_ground_truth ~path g with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "truncated file accepted");
  Sys.remove path

let test_samples_roundtrip () =
  let g = Lazy.force golden in
  let rng = Ftb_util.Rng.create ~seed:5 in
  let cases = Sample_run.draw_uniform rng g ~fraction:0.2 in
  let samples = Sample_run.run_cases g cases in
  let path = temp_path "samples" in
  Persist.save_samples ~path ~name:"linear" samples;
  let loaded = Persist.load_samples ~path ~name:"linear" in
  Alcotest.(check int) "same count" (Array.length samples) (Array.length loaded);
  Array.iteri
    (fun i (s : Sample_run.t) ->
      let l = loaded.(i) in
      Alcotest.(check bool) "fault" true (Ftb_trace.Fault.equal s.Sample_run.fault l.Sample_run.fault);
      Alcotest.(check bool) "outcome" true
        (Runner.outcome_equal s.Sample_run.outcome l.Sample_run.outcome);
      (* Bit-exact float round-trip via %h. *)
      Alcotest.(check bool) "injected error bit-exact" true
        (Int64.equal
           (Int64.bits_of_float s.Sample_run.injected_error)
           (Int64.bits_of_float l.Sample_run.injected_error));
      match (s.Sample_run.propagation, l.Sample_run.propagation) with
      | None, None -> ()
      | Some (ss, sd), Some (ls, ld) ->
          Alcotest.(check int) "start" ss ls;
          Alcotest.(check int) "deviation count" (Array.length sd) (Array.length ld);
          Array.iteri
            (fun k d ->
              Alcotest.(check bool) "deviation bit-exact" true
                (Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float ld.(k))))
            sd
      | _ -> Alcotest.fail "propagation presence differs")
    samples;
  Sys.remove path

let test_samples_with_nonfinite_errors () =
  (* Crash samples carry infinity; the format must round-trip it. *)
  let g = Lazy.force golden in
  (* bit 62 of site 0 (value 1.0) -> non-finite injection. *)
  let samples = [| Helpers.run_case g ((0 * 64) + 62) |] in
  Helpers.check_close "sanity: infinite injected error" infinity
    samples.(0).Sample_run.injected_error;
  let path = temp_path "samples_inf" in
  Persist.save_samples ~path ~name:"linear" samples;
  let loaded = Persist.load_samples ~path ~name:"linear" in
  Helpers.check_close "infinity preserved" infinity loaded.(0).Sample_run.injected_error;
  Sys.remove path

let test_samples_name_mismatch () =
  let path = temp_path "samples_name" in
  Persist.save_samples ~path ~name:"linear" [||];
  (match Persist.load_samples ~path ~name:"other" with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "name mismatch accepted");
  Sys.remove path

let test_garbage_rejected () =
  let path = temp_path "garbage" in
  let oc = open_out path in
  output_string oc "not a campaign file\n";
  close_out oc;
  (match Persist.load_ground_truth ~path (Lazy.force golden) with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted as ground truth");
  (match Persist.load_samples ~path ~name:"linear" with
  | exception Persist.Format_error _ -> ()
  | _ -> Alcotest.fail "garbage accepted as samples");
  Sys.remove path

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
        (contains_sub msg "checksum"));
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
        (contains_sub msg "truncated"));
  Sys.remove path

let test_envelope_legacy_passthrough () =
  (* A pre-envelope artifact (no magic) is returned whole, unverified. *)
  let path = temp_path "envelope_legacy" in
  let legacy = "ftb-ground-truth-v2 linear 4\nabcd" in
  rewrite path legacy;
  Alcotest.(check string) "legacy content returned whole" legacy
    (Persist.load_enveloped ~path);
  Sys.remove path

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
    Alcotest.test_case "samples name mismatch" `Quick test_samples_name_mismatch;
    Alcotest.test_case "garbage rejected" `Quick test_garbage_rejected;
    Alcotest.test_case "crc32 known vectors" `Quick test_crc32_known_vectors;
    Alcotest.test_case "envelope roundtrip" `Quick test_envelope_roundtrip;
    Alcotest.test_case "envelope detects flipped byte" `Quick
      test_envelope_detects_flipped_byte;
    Alcotest.test_case "envelope detects truncation" `Quick
      test_envelope_detects_truncation;
    Alcotest.test_case "envelope legacy passthrough" `Quick
      test_envelope_legacy_passthrough;
    Alcotest.test_case "quarantine moves and numbers" `Quick
      test_quarantine_moves_and_numbers;
    Alcotest.test_case "atomic write failure leaves no tmp" `Quick
      test_atomic_write_failure_leaves_no_tmp;
  ]
