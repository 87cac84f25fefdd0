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

let encoded_size (samples : Sample_run.t array) =
  Array.fold_left
    (fun acc (s : Sample_run.t) ->
      acc + min_record
      + match s.Sample_run.propagation with
        | None -> 0
        | Some (sites, _) -> 4 + (pair_bytes * Array.length sites))
    (String.length magic + 4) samples

let write (samples : Sample_run.t array) b ~pos =
  let m = String.length magic in
  Bytes.blit_string magic 0 b pos m;
  Bytes.set_int32_le b (pos + m) (Int32.of_int (Array.length samples));
  let pos = ref (pos + m + 4) in
  Array.iter
    (fun (s : Sample_run.t) ->
      let p = !pos in
      Bytes.set_int32_le b p (Int32.of_int s.Sample_run.fault.Fault.site);
      Bytes.set b (p + 4) (Char.chr s.Sample_run.fault.Fault.bit);
      Bytes.set b (p + 5) (outcome_byte s);
      Bytes.set_int64_le b (p + 6) (Int64.bits_of_float s.Sample_run.injected_error);
      match s.Sample_run.propagation with
      | None ->
          Bytes.set b (p + 14) '\000';
          pos := p + min_record
      | Some (sites, deviations) ->
          Bytes.set b (p + 14) '\001';
          Bytes.set_int32_le b (p + 15) (Int32.of_int (Array.length sites));
          let p = p + min_record + 4 in
          for i = 0 to Array.length sites - 1 do
            Bytes.set_int32_le b (p + (pair_bytes * i)) (Int32.of_int sites.(i));
            Bytes.set_int64_le b (p + (pair_bytes * i) + 4) (Int64.bits_of_float deviations.(i))
          done;
          pos := p + (pair_bytes * Array.length sites))
    samples;
  !pos

let encode samples =
  let b = Bytes.create (encoded_size samples) in
  ignore (write samples b ~pos:0 : int);
  Bytes.unsafe_to_string b

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

let case_of width (s : Sample_run.t) = (s.fault.Fault.site * width) + s.fault.Fault.bit

let validate spec ~sites ?cases (samples : Sample_run.t array) =
  let width = Models.spec_width spec in
  let outside (s : Sample_run.t) =
    if s.fault.Fault.site >= sites || s.fault.Fault.bit >= width then
      Some
        (Printf.sprintf "sample case %d outside the model's %d-case space" (case_of width s)
           (Models.total_cases spec ~sites))
    else
      match s.propagation with
      | Some (p, _) when Array.length p > 0 && p.(Array.length p - 1) >= sites ->
          (* Ascending, so the last site is the largest. *)
          Some
            (Printf.sprintf "sample case %d propagates to site %d of %d" (case_of width s)
               p.(Array.length p - 1) sites)
      | Some _ | None -> None
  in
  match Array.find_map outside samples with
  | Some message -> Error message
  | None -> (
      match cases with
      | Some cases when Array.length cases <> Array.length samples ->
          Error
            (Printf.sprintf "%d samples; expected %d" (Array.length samples) (Array.length cases))
      | Some cases when not (Array.for_all2 (fun s case -> case_of width s = case) samples cases)
        ->
          Error "samples do not match the granted case list"
      | Some _ | None -> Ok ())
