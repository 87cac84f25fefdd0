module Fault = Ftb_trace.Fault
module Runner = Ftb_trace.Runner

exception Format_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Format_error s)) fmt

(* Binary layout (little-endian throughout):

     magic   "ftbS2"                      5 bytes
     count   int32                        4 bytes
     then per sample:
       site            int32             4 bytes
       bit             byte              1 byte
       outcome byte    byte              1 byte   (Ground_truth encoding)
       injected_error  int64 float bits  8 bytes
       has_propagation byte              1 byte   (0 | 1)
       [len            int32             4 bytes
        len pairs:
          site         int32             4 bytes  (strictly ascending)
          deviation    int64 float bits  8 bytes  (positive, not NaN)]

   The float fields travel as raw IEEE-754 images, so encode/decode is
   bit-exact — the whole point: a sample blob computed by a fleet worker
   must fold into the exact boundary the serial oracle infers. The
   propagation is sparse, as {!Sample_run.t} holds it: the sites whose
   deviation is zero are not in the record. The dense "ftbS1" layout
   (a start site and every deviation after it) is no longer read. *)

let magic = "ftbS2"
let retired_magic = "ftbS1"
let min_record = 15
let pair_bytes = 12

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
      | Some (sites, deviations) ->
          Buffer.add_char buf '\001';
          Buffer.add_int32_le buf (Int32.of_int (Array.length sites));
          Array.iteri
            (fun i j ->
              Buffer.add_int32_le buf (Int32.of_int j);
              Buffer.add_int64_le buf (Int64.bits_of_float deviations.(i)))
            sites)
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
  let head = String.sub blob 0 (min len (String.length magic)) in
  if head = retired_magic then
    fail "unsupported sample format %S (expected %s)" head magic;
  if head <> magic then fail "bad magic";
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
              let n = int32 "propagation length" in
              if n < 0 || n > (len - !pos) / pair_bytes then
                fail "bad propagation length %d" n;
              let sites = Array.make n 0 and deviations = Array.make n 0. in
              for i = 0 to n - 1 do
                let j = int32 "propagation site" in
                if j < 0 then fail "negative propagation site %d" j;
                if i > 0 && j <= sites.(i - 1) then
                  fail "propagation sites not strictly ascending at pair %d (site %d)" i j;
                let d = float64 "deviation" in
                if not (d > 0.) then fail "non-positive or NaN deviation at site %d" j;
                sites.(i) <- j;
                deviations.(i) <- d
              done;
              Some (sites, deviations)
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
  (* A masked sample's propagation can hold a pair per site: 15 fixed
     bytes (flag included) + a 4-byte length + 12 bytes per pair. *)
  19 + (pair_bytes * sites)
