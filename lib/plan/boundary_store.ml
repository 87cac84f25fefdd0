module Adaptive = Ftb_core.Adaptive
module Boundary = Ftb_core.Boundary
module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Persist = Ftb_inject.Persist
module Runner = Ftb_trace.Runner
module Sample_run = Ftb_inject.Sample_run
module Fingerprint = Ftb_util.Fingerprint

type entry = {
  key : string;
  bench : string;
  fingerprint : string;
  spec : Models.spec;
  fuel : int option;
  config : Adaptive.config;
  seed : int;
  sites : int;
  thresholds : float array;
  support : int array;
  golden_values : float array;
  uncertainty : float;
  rounds : int;
  samples : int;
  masked : int;
  sdc : int;
  crash : int;
  sample_fraction : float;
  stop : Adaptive.stop_reason;
  prov : string;
  created : float;
}

let prov_local = "local"

let prov_valid p =
  p <> ""
  && String.for_all (function ' ' | '\n' | '\r' | '\t' -> false | _ -> true) p

let bench_valid b =
  b <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> true | _ -> false)
       b

let config_token (config : Adaptive.config) =
  Printf.sprintf "%h:%h:%d:%b:%b" config.Adaptive.round_fraction
    config.Adaptive.stop_sdc_fraction config.Adaptive.max_rounds config.Adaptive.filter
    config.Adaptive.bias

let fuel_token = function None -> "none" | Some n -> string_of_int n

(* The campaign identity: everything that determines the converged
   boundary bytes. Two submissions with equal keys run the identical
   campaign, which is what makes serving the stored entry a sound
   warm start. *)
let key_of ~bench ~fingerprint ~spec ~fuel ~config ~seed =
  Fingerprint.of_string
    (Printf.sprintf "ftb-boundary-key-v1:%s:%s:%s:%s:%s:%d" bench fingerprint
       (Models.spec_to_string spec) (fuel_token fuel) (config_token config) seed)

(* Model-aware §3.6 uncertainty: precision of the boundary restricted to
   the sampled cases — [Metrics.uncertainty] generalized through
   [injected_error_model] so non-default models judge themselves against
   their own corruption, not a 64-bit flip. *)
let uncertainty_of spec golden boundary samples =
  let width = Models.spec_width spec in
  let predicted = ref 0 and correct = ref 0 in
  Array.iter
    (fun (s : Sample_run.t) ->
      let fault = s.Sample_run.fault in
      let site = fault.Ftb_trace.Fault.site in
      let case = (site * width) + fault.Ftb_trace.Fault.bit in
      let err = Ground_truth.injected_error_model spec golden ~case in
      if err <= Boundary.threshold boundary site then begin
        incr predicted;
        if s.Sample_run.outcome = Runner.Masked then incr correct
      end)
    samples;
  if !predicted = 0 then 1. else float_of_int !correct /. float_of_int !predicted

let entry_of_result ?(prov = prov_local) ~bench ~spec ~fuel ~config ~seed ~created golden
    (result : Adaptive.result) =
  if not (bench_valid bench) then
    invalid_arg "Boundary_store: bench must be a [A-Za-z0-9._-] token";
  if not (prov_valid prov) then
    invalid_arg "Boundary_store: provenance must be a space-free token";
  let fingerprint = Fingerprint.of_floats golden.Golden.values in
  let boundary = result.Adaptive.boundary in
  let sites = Boundary.sites boundary in
  let masked, sdc, crash = Sample_run.count_outcomes result.Adaptive.samples in
  {
    key = key_of ~bench ~fingerprint ~spec ~fuel ~config ~seed;
    bench;
    fingerprint;
    spec;
    fuel;
    config;
    seed;
    sites;
    thresholds = Array.init sites (Boundary.threshold boundary);
    support = Array.copy boundary.Boundary.support;
    golden_values = Array.init sites (Golden.value golden);
    uncertainty = uncertainty_of spec golden boundary result.Adaptive.samples;
    rounds = result.Adaptive.rounds;
    samples = Array.length result.Adaptive.samples;
    masked;
    sdc;
    crash;
    sample_fraction = result.Adaptive.sample_fraction;
    stop = result.Adaptive.stop_reason;
    prov;
    created;
  }

(* ------------------------------------------------------------------ *)
(* Serialization: enveloped text, one header + one line per site. *)

let magic = "ftb-boundary-store-v1"

let fail path fmt =
  Printf.ksprintf (fun msg -> raise (Persist.Format_error (path ^ ": " ^ msg))) fmt

let write entry buf =
  Printf.bprintf buf "%s %s %s %s %s %s %h %h %d %d %d %d %d %h %d %d %d %d %d %h %s %s %h\n"
    magic entry.key entry.bench entry.fingerprint
    (Models.spec_to_string entry.spec)
    (fuel_token entry.fuel) entry.config.Adaptive.round_fraction
    entry.config.Adaptive.stop_sdc_fraction entry.config.Adaptive.max_rounds
    (if entry.config.Adaptive.filter then 1 else 0)
    (if entry.config.Adaptive.bias then 1 else 0)
    entry.seed entry.sites entry.uncertainty entry.rounds entry.samples
    entry.masked entry.sdc entry.crash entry.sample_fraction
    (Adaptive.stop_reason_to_string entry.stop)
    entry.prov entry.created;
  for site = 0 to entry.sites - 1 do
    Printf.bprintf buf "%h %d %h\n" entry.thresholds.(site) entry.support.(site)
      entry.golden_values.(site)
  done

let parse ~path contents =
  match String.split_on_char '\n' contents with
  | header :: site_lines -> (
      match String.split_on_char ' ' header with
      | [
          m; key; bench; fp; model; fuel; rf; stop_frac; max_rounds; filter; bias; seed;
          sites; uncertainty; rounds; samples; masked; sdc; crash; fraction; stop; prov;
          created;
        ]
        when m = magic ->
          let spec =
            match Models.spec_of_string model with
            | Ok spec -> spec
            | Error msg -> fail path "%s" msg
          in
          let fuel =
            if fuel = "none" then None else Some (Persist.int_field ~path "fuel" fuel)
          in
          let config =
            {
              Adaptive.round_fraction = Persist.float_field ~path "round_fraction" rf;
              stop_sdc_fraction = Persist.float_field ~path "stop_sdc_fraction" stop_frac;
              max_rounds = Persist.int_field ~path "max_rounds" max_rounds;
              filter = Persist.int_field ~path "filter" filter <> 0;
              bias = Persist.int_field ~path "bias" bias <> 0;
            }
          in
          let sites = Persist.int_field ~path "sites" sites in
          if sites <= 0 then fail path "sites must be positive";
          if not (Fingerprint.is_hex key) then fail path "bad key %S" key;
          if not (Fingerprint.is_hex fp) then fail path "bad fingerprint %S" fp;
          if not (bench_valid bench) then fail path "bad bench token %S" bench;
          if not (prov_valid prov) then fail path "bad provenance token %S" prov;
          let stop =
            match Adaptive.stop_reason_of_string stop with
            | Some reason -> reason
            | None -> fail path "bad stop reason %S" stop
          in
          (* Count the site lines before sizing anything by [sites]: the
             header is untrusted until the body agrees with it. *)
          let site_lines = Array.of_list (List.filter (fun l -> l <> "") site_lines) in
          if Array.length site_lines <> sites then
            fail path "%d site lines for %d sites" (Array.length site_lines) sites;
          let thresholds = Array.make sites 0. in
          let support = Array.make sites 0 in
          let golden_values = Array.make sites 0. in
          Array.iteri
            (fun i line ->
              match String.split_on_char ' ' line with
              | [ threshold; supp; value ] ->
                  thresholds.(i) <- Persist.float_field ~path "threshold" threshold;
                  support.(i) <- Persist.int_field ~path "support" supp;
                  golden_values.(i) <- Persist.float_field ~path "golden value" value
              | _ -> fail path "malformed site line %S" line)
            site_lines;
          {
            key;
            bench;
            fingerprint = fp;
            spec;
            fuel;
            config;
            seed = Persist.int_field ~path "seed" seed;
            sites;
            thresholds;
            support;
            golden_values;
            uncertainty = Persist.float_field ~path "uncertainty" uncertainty;
            rounds = Persist.int_field ~path "rounds" rounds;
            samples = Persist.int_field ~path "samples" samples;
            masked = Persist.int_field ~path "masked" masked;
            sdc = Persist.int_field ~path "sdc" sdc;
            crash = Persist.int_field ~path "crash" crash;
            sample_fraction = Persist.float_field ~path "sample_fraction" fraction;
            stop;
            prov;
            created = Persist.float_field ~path "created" created;
          }
      | m :: _ when m <> magic -> fail path "unknown boundary-store magic %S" m
      | _ -> fail path "malformed boundary-store header")
  | [] -> fail path "empty boundary-store entry"

(* ------------------------------------------------------------------ *)
(* The store: a typed view over the content-addressed substrate
   (<root>/<k0k1>/<key>, quarantine/ siblings), plus a sorted index for
   O(log n) by-kernel lookup. *)

module Cas = Ftb_inject.Cas

type t = Cas.t

let open_ = Cas.open_
let root = Cas.root
let path_of_key = Cas.path_of_key
let index_path t = Filename.concat (Cas.root t) "index"
let find t ~key = Cas.find t ~key ~decode:parse ~key_of:(fun entry -> entry.key)

(* ------------------------------------------------------------------ *)
(* Index: one line per entry, "<bench> <model> <created %h> <key>",
   sorted by (bench, model, created). Lookups binary-search the sorted
   array; a missing or corrupt index is rebuilt from a full scan, so the
   index is a pure accelerator — never a source of truth. *)

type index_row = { ix_bench : string; ix_model : string; ix_created : float; ix_key : string }

let row_compare a b =
  match compare a.ix_bench b.ix_bench with
  | 0 -> (
      match compare a.ix_model b.ix_model with
      | 0 -> compare a.ix_created b.ix_created
      | c -> c)
  | c -> c

let row_of_entry entry =
  {
    ix_bench = entry.bench;
    ix_model = Models.spec_to_string entry.spec;
    ix_created = entry.created;
    ix_key = entry.key;
  }

let index_rebuild t =
  let rows =
    Array.of_list
      (List.filter_map (fun (_, entry) -> Option.map row_of_entry entry) (Cas.scan t ~decode:parse))
  in
  Array.sort row_compare rows;
  rows

let index_write t rows =
  Persist.with_out_atomic (index_path t) (fun oc ->
      Array.iter
        (fun row ->
          Printf.fprintf oc "%s %s %h %s\n" row.ix_bench row.ix_model row.ix_created
            row.ix_key)
        rows)

let index_load t =
  let path = index_path t in
  let parse_line line =
    match String.split_on_char ' ' line with
    | [ bench; model; created; key ]
      when bench_valid bench && Fingerprint.is_hex key -> (
        match float_of_string_opt created with
        | Some created ->
            Some { ix_bench = bench; ix_model = model; ix_created = created; ix_key = key }
        | None -> None)
    | _ -> None
  in
  let from_file () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rows = ref [] in
        (try
           while true do
             match parse_line (input_line ic) with
             | Some row -> rows := row :: !rows
             | None -> failwith "corrupt index line"
           done
         with End_of_file -> ());
        let rows = Array.of_list (List.rev !rows) in
        let sorted = Array.copy rows in
        Array.sort row_compare sorted;
        if sorted <> rows then failwith "index not sorted";
        rows)
  in
  if not (Sys.file_exists path) then begin
    let rows = index_rebuild t in
    index_write t rows;
    rows
  end
  else
    match from_file () with
    | rows -> rows
    | exception (Failure _ | Sys_error _) ->
        let rows = index_rebuild t in
        index_write t rows;
        rows

let put t entry =
  Cas.put t ~key:entry.key (write entry);
  let rows = index_load t in
  let rows = Array.of_list (List.filter (fun r -> r.ix_key <> entry.key) (Array.to_list rows)) in
  let rows = Array.append rows [| row_of_entry entry |] in
  Array.sort row_compare rows;
  index_write t rows

(* Binary search for the first row with ix_bench >= bench. *)
let lower_bound rows bench =
  let lo = ref 0 and hi = ref (Array.length rows) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if rows.(mid).ix_bench < bench then lo := mid + 1 else hi := mid
  done;
  !lo

(* The newest row of a kernel (and model, when given). *)
let newest rows ~bench ~model =
  let best = ref None in
  let i = ref (lower_bound rows bench) in
  while !i < Array.length rows && rows.(!i).ix_bench = bench do
    let row = rows.(!i) in
    (match model with
    | Some m when m <> row.ix_model -> ()
    | Some _ | None -> (
        match !best with
        | Some b when b.ix_created >= row.ix_created -> ()
        | Some _ | None -> best := Some row));
    incr i
  done;
  !best

let find_latest t ~bench ?spec () =
  let model = Option.map Models.spec_to_string spec in
  match newest (index_load t) ~bench ~model with
  | None -> None
  | Some row -> (
      match find t ~key:row.ix_key with
      | Some entry -> Some entry
      | None ->
          (* The entry behind the index row was quarantined: the index is
             stale. Rebuild it and answer from the honest one, so an older
             valid entry still serves. *)
          let rows = index_rebuild t in
          index_write t rows;
          Option.bind (newest rows ~bench ~model) (fun row -> find t ~key:row.ix_key))

let list t =
  List.filter_map snd (Cas.scan t ~decode:parse)
  |> List.sort (fun a b ->
         match compare a.bench b.bench with 0 -> compare b.created a.created | c -> c)

let gc t ~keep =
  let date path =
    match Cas.read ~decode:parse path with
    | Some entry -> Some entry.created
    | None -> Cas.mtime path
  in
  let removed = Cas.gc t ~keep ~date in
  index_write t (index_rebuild t);
  removed

type stats = Cas.stats = { entries : int; bytes : int; quarantined : int }

let stats = Cas.stats

(* ------------------------------------------------------------------ *)
(* Queries: zero kernel execution — the injected error is a pure function
   of the stored golden value and the model's corruption of it. *)

type prediction = {
  outcome : [ `Masked | `Sdc ];
  threshold : float;
  injected_error : float;
  site_support : int;
  entry_uncertainty : float;
}

let query entry ~site ~bit =
  let width = Models.spec_width entry.spec in
  if site < 0 || site >= entry.sites then
    invalid_arg
      (Printf.sprintf "Boundary_store.query: site %d outside [0,%d)" site entry.sites);
  if bit < 0 || bit >= width then
    invalid_arg
      (Printf.sprintf "Boundary_store.query: bit %d outside the model's [0,%d) case space"
         bit width);
  let v = entry.golden_values.(site) in
  let case = (site * width) + bit in
  let corrupted = Models.case_corrupt entry.spec ~case v in
  let err = abs_float (corrupted -. v) in
  let err = if Float.is_nan err then infinity else err in
  let threshold = entry.thresholds.(site) in
  {
    outcome = (if err <= threshold then `Masked else `Sdc);
    threshold;
    injected_error = err;
    site_support = entry.support.(site);
    entry_uncertainty = entry.uncertainty;
  }
