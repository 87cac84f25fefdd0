module Fault = Ftb_trace.Fault
module Runner = Ftb_trace.Runner

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* Binary layout (little-endian throughout):

     magic   "ftbS1"                      5 bytes
     count   int32                        4 bytes
     then per sample:
       site            int32             4 bytes
       bit             byte              1 byte
       outcome byte    byte              1 byte   (Ground_truth encoding)
       injected_error  int64 float bits  8 bytes
       has_propagation byte              1 byte   (0 | 1)
       [start          int32             4 bytes
        len            int32             4 bytes
        deviations     len * int64 float bits]

   The float fields travel as raw IEEE-754 images, so encode/decode is
   bit-exact — the whole point: a sample blob computed by a fleet worker
   must fold into the exact boundary the serial oracle infers. *)

let magic = "ftbS1"
let min_record = 15

let outcome_byte (s : Sample_run.t) =
  match (s.Sample_run.outcome, s.Sample_run.crash_reason) with
  | Runner.Masked, _ -> '\000'
  | Runner.Sdc, _ -> '\001'
  | Runner.Crash, Some reason -> Ground_truth.crash_byte reason
  | Runner.Crash, None -> '\002'

let encode (samples : Sample_run.t array) =
  let buf = Buffer.create (64 + (32 * Array.length samples)) in
  Buffer.add_string buf magic;
  Buffer.add_int32_le buf (Int32.of_int (Array.length samples));
  Array.iter
    (fun (s : Sample_run.t) ->
      let fault = s.Sample_run.fault in
      Buffer.add_int32_le buf (Int32.of_int fault.Fault.site);
      Buffer.add_char buf (Char.chr fault.Fault.bit);
      Buffer.add_char buf (outcome_byte s);
      Buffer.add_int64_le buf (Int64.bits_of_float s.Sample_run.injected_error);
      match s.Sample_run.propagation with
      | None -> Buffer.add_char buf '\000'
      | Some (start, deviations) ->
          Buffer.add_char buf '\001';
          Buffer.add_int32_le buf (Int32.of_int start);
          Buffer.add_int32_le buf (Int32.of_int (Array.length deviations));
          Array.iter
            (fun d -> Buffer.add_int64_le buf (Int64.bits_of_float d))
            deviations)
    samples;
  Buffer.contents buf

let decode blob =
  let len = String.length blob in
  let pos = ref 0 in
  let need n what =
    if !pos + n > len then fail "truncated blob: %s at byte %d" what !pos
  in
  let byte what =
    need 1 what;
    let c = String.unsafe_get blob !pos in
    incr pos;
    c
  in
  let int32 what =
    need 4 what;
    let v = Int32.to_int (String.get_int32_le blob !pos) in
    pos := !pos + 4;
    v
  in
  let float64 what =
    need 8 what;
    let v = Int64.float_of_bits (String.get_int64_le blob !pos) in
    pos := !pos + 8;
    v
  in
  if len < String.length magic || String.sub blob 0 (String.length magic) <> magic then
    fail "bad magic";
  pos := String.length magic;
  let count = int32 "count" in
  if count < 0 then fail "negative sample count %d" count;
  (* Bound the count by the bytes left before allocating for it: a sample
     without propagation is the smallest record. *)
  if count > (len - !pos) / min_record then
    fail "sample count %d exceeds what %d remaining bytes can hold" count (len - !pos);
  let samples =
    Array.init count (fun _ ->
        let site = int32 "site" in
        let bit = Char.code (byte "bit") in
        if site < 0 then fail "negative site %d" site;
        let fault =
          match Fault.make ~site ~bit with
          | fault -> fault
          | exception Invalid_argument msg -> fail "bad fault: %s" msg
        in
        let ob = byte "outcome" in
        let outcome =
          match Ground_truth.outcome_of_byte ob with
          | outcome -> outcome
          | exception Invalid_argument msg -> fail "bad outcome byte: %s" msg
        in
        let crash_reason = Ground_truth.crash_reason_of_byte ob in
        let injected_error = float64 "injected_error" in
        let propagation =
          match byte "propagation flag" with
          | '\000' -> None
          | '\001' ->
              let start = int32 "propagation start" in
              let n = int32 "propagation length" in
              if start < 0 then fail "negative propagation start %d" start;
              if n < 0 || n > (len - !pos) / 8 then
                fail "bad propagation length %d" n;
              Some (start, Array.init n (fun _ -> float64 "deviation"))
          | c -> fail "bad propagation flag byte %d" (Char.code c)
        in
        {
          Sample_run.fault;
          outcome;
          crash_reason;
          injected_error;
          propagation;
        })
  in
  if !pos <> len then fail "trailing garbage: %d bytes past sample %d" (len - !pos) count;
  samples

let encoded_size_upper_bound ~sites =
  (* A masked sample's propagation can cover every site past the fault:
     19 fixed bytes + flag + 8 header + 8 bytes per deviation. *)
  28 + (8 * sites)
