module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Persist = Ftb_inject.Persist

type t = {
  program : string;
  sites : int;
  shard_size : int;
  model : Models.spec;
  fingerprint : string;
  completed : bool array;
  outcomes : Bytes.t;
}

let fail fmt = Printf.ksprintf (fun msg -> raise (Persist.Format_error msg)) fmt

(* The fingerprint digests the golden trace values bit-exactly, so a resumed
   campaign is rejected if the program's inputs — and therefore any outcome
   byte — could differ from the run that wrote the checkpoint. The program
   name and site count alone cannot see an input change. The fault model is
   *not* part of the fingerprint: it is a separate header field, checked
   separately, so the mismatch message can name the models. *)
(* Delegates to the tree-wide hashing module; the bit-exact little-endian
   float encoding there is part of this file format (v2/v3 checkpoints
   persist this fingerprint). *)
let fingerprint_of_golden (golden : Golden.t) =
  Ftb_util.Fingerprint.of_floats golden.Golden.values

let shards t = Array.length t.completed

let create ?(model = Models.default_spec) golden ~shard_size =
  let total = Models.total_cases model ~sites:(Golden.sites golden) in
  {
    program = golden.Golden.program.Ftb_trace.Program.name;
    sites = Golden.sites golden;
    shard_size;
    model;
    fingerprint = fingerprint_of_golden golden;
    completed = Array.make (Shard.count ~total ~shard_size) false;
    outcomes = Bytes.make total '\000';
  }

let completed_count t = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 t.completed
let is_complete t = Array.for_all Fun.id t.completed

let completed_cases t =
  let total = Bytes.length t.outcomes in
  let acc = ref 0 in
  Array.iteri
    (fun i c ->
      if c then begin
        let lo, hi = Shard.bounds ~total ~shard_size:t.shard_size i in
        acc := !acc + (hi - lo)
      end)
    t.completed;
  !acc

let ground_truth golden t =
  if not (is_complete t) then
    invalid_arg
      (Printf.sprintf "Checkpoint.ground_truth: only %d/%d shards complete"
         (completed_count t) (shards t));
  Ground_truth.of_outcomes ~width:(Models.spec_width t.model) golden t.outcomes

(* ------------------------------------------------------------------ *)
(* Format v3 (payload inside a Persist integrity envelope):
     ftb-campaign-v3 <program> <sites> <shard_size> <model> <fingerprint>
     <manifest: one '0'/'1' per shard>
     <raw outcome bytes, full length; incomplete shards are padding>
   The model field is the single-token [Models.spec_to_string] encoding.
   Any other magic is an unsupported format. *)

let magic = "ftb-campaign-v3"

let save ~path t =
  Persist.save_enveloped ~path (fun b ->
      Buffer.add_string b
        (Printf.sprintf "%s %s %d %d %s %s\n" magic t.program t.sites t.shard_size
           (Models.spec_to_string t.model) t.fingerprint);
      Array.iter (fun c -> Buffer.add_char b (if c then '1' else '0')) t.completed;
      Buffer.add_char b '\n';
      Buffer.add_bytes b t.outcomes)

let validate_bytes ~path t =
  Array.iteri
    (fun i c ->
      if c then begin
        let lo, hi =
          Shard.bounds ~total:(Bytes.length t.outcomes) ~shard_size:t.shard_size i
        in
        for case = lo to hi - 1 do
          match Ground_truth.outcome_of_byte (Bytes.get t.outcomes case) with
          | _ -> ()
          | exception Invalid_argument _ ->
              fail "%s: corrupt outcome byte %d in completed shard %d" path
                (Char.code (Bytes.get t.outcomes case))
                i
        done
      end)
    t.completed

(* Parse an envelope-verified payload: header line, manifest line, then
   raw outcome bytes. *)
let load ?(model = Models.default_spec) ~path ~shard_size:_ golden =
  let requested = model in
  let payload = Persist.load_enveloped ~path in
  let header_end =
    match String.index_opt payload '\n' with
    | Some nl -> nl
    | None -> fail "%s:1: malformed checkpoint header" path
  in
  let header = String.sub payload 0 header_end in
  let program, sites, shard_size, model, fingerprint =
    match String.split_on_char ' ' header with
    | [ m; program; sites; shard_size; model; fingerprint ] when m = magic -> (
        match Models.spec_of_string model with
        | Ok model -> (program, sites, shard_size, model, fingerprint)
        | Error msg -> fail "%s:1: %s" path msg)
    | m :: _ when m = magic -> fail "%s:1: malformed checkpoint header %S" path header
    | _ ->
        fail "%s:1: unsupported checkpoint format %S (expected %s)" path
          (Persist.format_token payload) magic
  in
  let sites = Persist.int_field ~path:(path ^ ":1") "site count" sites in
  let shard_size = Persist.int_field ~path:(path ^ ":1") "shard size" shard_size in
  if shard_size <= 0 then fail "%s:1: shard size must be positive" path;
  if program <> golden.Golden.program.Ftb_trace.Program.name then
    fail "%s:1: checkpoint is for program %S, golden run is %S" path program
      golden.Golden.program.Ftb_trace.Program.name;
  if sites <> Golden.sites golden then
    fail "%s:1: checkpoint has %d sites, golden run has %d" path sites
      (Golden.sites golden);
  if not (Models.spec_equal model requested) then
    fail "%s:1: checkpoint is for fault model %s, campaign wants %s" path
      (Models.spec_name model) (Models.spec_name requested);
  let expected = fingerprint_of_golden golden in
  if fingerprint <> expected then
    fail "%s:1: golden-run fingerprint mismatch (%s stored, %s computed)" path
      fingerprint expected;
  let total = Models.total_cases model ~sites in
  let n_shards = Shard.count ~total ~shard_size in
  let manifest_end =
    match String.index_from_opt payload (header_end + 1) '\n' with
    | Some nl -> nl
    | None -> fail "%s:2: missing shard manifest" path
  in
  let manifest = String.sub payload (header_end + 1) (manifest_end - header_end - 1) in
  if String.length manifest <> n_shards then
    fail "%s:2: manifest has %d entries, expected %d shards" path
      (String.length manifest) n_shards;
  let completed =
    Array.init n_shards (fun i ->
        match manifest.[i] with
        | '1' -> true
        | '0' -> false
        | c -> fail "%s:2: bad manifest flag %C for shard %d" path c i)
  in
  if String.length payload - manifest_end - 1 < total then
    fail "%s: truncated outcome data" path;
  let outcomes = Bytes.of_string (String.sub payload (manifest_end + 1) total) in
  let t = { program; sites; shard_size; model; fingerprint; completed; outcomes } in
  validate_bytes ~path t;
  t
