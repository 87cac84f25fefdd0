type mode =
  | Exhaustive
  | Sample of { fraction : float; seed : int }
  | Adaptive of { config : Ftb_core.Adaptive.config; seed : int }

type spec = {
  bench : string;
  mode : mode;
  shard_size : int;
  fuel : int option;
  model : Ftb_inject.Models.spec;
  priority : int;
  trust_cache : bool;
}

let default_spec ~bench =
  {
    bench;
    mode = Exhaustive;
    shard_size = 4096;
    fuel = Some 10_000_000;
    model = Ftb_inject.Models.default_spec;
    priority = 0;
    trust_cache = false;
  }

type status = Queued | Running | Completed | Failed of string | Cancelled | Stuck

type counts = {
  cases_done : int;
  cases_total : int;
  masked : int;
  sdc : int;
  crash : int;
}

(* How much of a job the daemon served from the compositional profile
   cache: [Cache_full] never touched the pool or fleet (the whole
   boundary came from the store), [Cache_partial] ran a reduced campaign
   (only missed sections' cases executed). Clients read this to tell a
   millisecond hit from a real run. *)
type cache = Cache_none | Cache_partial | Cache_full

type info = {
  id : int;
  spec : spec;
  status : status;
  counts : counts;
  submitted : float;
  started : float option;
  finished : float option;
  idem : string option;
  cache : cache;
}

let zero_counts = { cases_done = 0; cases_total = 0; masked = 0; sdc = 0; crash = 0 }

let status_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Completed -> "completed"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Stuck -> "stuck"

let is_terminal = function
  | Completed | Failed _ | Cancelled | Stuck -> true
  | Queued | Running -> false

let cache_name = function
  | Cache_none -> "none"
  | Cache_partial -> "partial"
  | Cache_full -> "full"

let cache_of_name = function
  | "none" -> Some Cache_none
  | "partial" -> Some Cache_partial
  | "full" -> Some Cache_full
  | _ -> None

(* ------------------------------------------------------------------ *)
(* JSON codecs                                                         *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Decode_error msg)) fmt

let get what decode json field =
  match Option.bind (Json.member field json) decode with
  | Some v -> v
  | None -> fail "missing or bad %s field %S" what field

let get_int = get "integer" Json.to_int
let get_str = get "string" Json.to_str
let get_float = get "number" Json.to_float

let opt_field decode json field =
  match Json.member field json with
  | None | Some Json.Null -> None
  | Some v -> (
      match decode v with
      | Some v -> Some v
      | None -> fail "bad optional field %S" field)

let spec_to_json s =
  let mode_fields =
    match s.mode with
    | Exhaustive -> [ ("mode", Json.String "exhaustive") ]
    | Sample { fraction; seed } ->
        [
          ("mode", Json.String "sample");
          ("fraction", Json.Float fraction);
          ("seed", Json.Int seed);
        ]
    | Adaptive { config; seed } ->
        [
          ("mode", Json.String "adaptive");
          ("round_fraction", Json.Float config.Ftb_core.Adaptive.round_fraction);
          ("stop_sdc_fraction", Json.Float config.Ftb_core.Adaptive.stop_sdc_fraction);
          ("max_rounds", Json.Int config.Ftb_core.Adaptive.max_rounds);
          ("filter", Json.Bool config.Ftb_core.Adaptive.filter);
          ("bias", Json.Bool config.Ftb_core.Adaptive.bias);
          ("seed", Json.Int seed);
        ]
  in
  Json.Obj
    ([ ("bench", Json.String s.bench) ]
    @ mode_fields
    @ [
        ("shard_size", Json.Int s.shard_size);
        ( "fuel",
          match s.fuel with Some n -> Json.Int n | None -> Json.Null );
        ("model", Json.String (Ftb_inject.Models.spec_to_string s.model));
        ("priority", Json.Int s.priority);
        ("trust_cache", Json.Bool s.trust_cache);
      ])

let spec_of_json json =
  let bench = get_str json "bench" in
  let mode =
    match get_str json "mode" with
    | "exhaustive" -> Exhaustive
    | "sample" ->
        let fraction = get_float json "fraction" in
        if not (fraction > 0. && fraction <= 1.) then
          fail "fraction %g outside (0, 1]" fraction;
        Sample { fraction; seed = get_int json "seed" }
    | "adaptive" ->
        let opt decode field default =
          Option.value ~default (opt_field decode json field)
        in
        let d = Ftb_core.Adaptive.default_config in
        let config =
          {
            Ftb_core.Adaptive.round_fraction =
              opt Json.to_float "round_fraction" d.Ftb_core.Adaptive.round_fraction;
            stop_sdc_fraction =
              opt Json.to_float "stop_sdc_fraction" d.Ftb_core.Adaptive.stop_sdc_fraction;
            max_rounds = opt Json.to_int "max_rounds" d.Ftb_core.Adaptive.max_rounds;
            filter = opt Json.to_bool "filter" d.Ftb_core.Adaptive.filter;
            bias = opt Json.to_bool "bias" d.Ftb_core.Adaptive.bias;
          }
        in
        (* Shared-range validation: the daemon rejects what the library
           entry points reject, with the same usage-error text. *)
        (try Ftb_core.Adaptive.check_config config
         with Invalid_argument msg -> fail "%s" msg);
        Adaptive { config; seed = get_int json "seed" }
    | m -> fail "unknown mode %S" m
  in
  let shard_size = get_int json "shard_size" in
  if shard_size <= 0 then fail "shard_size must be positive";
  let fuel = opt_field Json.to_int json "fuel" in
  (match fuel with
  | Some n when n <= 0 -> fail "fuel must be positive"
  | _ -> ());
  let model =
    (* Descriptors written before pluggable models carry no model field:
       every such job ran the paper's Bit_flip_64. *)
    match opt_field Json.to_str json "model" with
    | None -> Ftb_inject.Models.default_spec
    | Some s -> (
        match Ftb_inject.Models.spec_of_string s with
        | Ok model -> model
        | Error msg -> fail "%s" msg)
  in
  let trust_cache =
    (* Specs from pre-provenance clients carry no field: they did not opt
       into trusting unaudited fleet-harvested profiles. *)
    Option.value ~default:false (opt_field Json.to_bool json "trust_cache")
  in
  { bench; mode; shard_size; fuel; model; priority = get_int json "priority"; trust_cache }

let counts_to_json c =
  Json.Obj
    [
      ("cases_done", Json.Int c.cases_done);
      ("cases_total", Json.Int c.cases_total);
      ("masked", Json.Int c.masked);
      ("sdc", Json.Int c.sdc);
      ("crash", Json.Int c.crash);
    ]

let counts_of_json json =
  {
    cases_done = get_int json "cases_done";
    cases_total = get_int json "cases_total";
    masked = get_int json "masked";
    sdc = get_int json "sdc";
    crash = get_int json "crash";
  }

let info_to_json i =
  Json.Obj
    [
      ("id", Json.Int i.id);
      ("spec", spec_to_json i.spec);
      ("status", Json.String (status_name i.status));
      ( "error",
        match i.status with Failed msg -> Json.String msg | _ -> Json.Null );
      ("counts", counts_to_json i.counts);
      ("submitted", Json.Float i.submitted);
      ( "started",
        match i.started with Some t -> Json.Float t | None -> Json.Null );
      ( "finished",
        match i.finished with Some t -> Json.Float t | None -> Json.Null );
      ( "idem",
        match i.idem with Some k -> Json.String k | None -> Json.Null );
      ("served_from_cache", Json.String (cache_name i.cache));
    ]

let info_of_json json =
  let status =
    match get_str json "status" with
    | "queued" -> Queued
    | "running" -> Running
    | "completed" -> Completed
    | "cancelled" -> Cancelled
    | "stuck" -> Stuck
    | "failed" ->
        Failed
          (match Option.bind (Json.member "error" json) Json.to_str with
          | Some msg -> msg
          | None -> "unknown failure")
    | s -> fail "unknown status %S" s
  in
  let spec =
    match Json.member "spec" json with
    | Some spec -> spec_of_json spec
    | None -> fail "missing spec"
  in
  let counts =
    match Json.member "counts" json with
    | Some counts -> counts_of_json counts
    | None -> fail "missing counts"
  in
  {
    id = get_int json "id";
    spec;
    status;
    counts;
    submitted = get_float json "submitted";
    started = opt_field Json.to_float json "started";
    finished = opt_field Json.to_float json "finished";
    idem = opt_field Json.to_str json "idem";
    cache =
      (* Descriptors written before the profile cache carry no field:
         every such job ran from scratch. *)
      (match opt_field Json.to_str json "served_from_cache" with
      | None -> Cache_none
      | Some s -> (
          match cache_of_name s with
          | Some c -> c
          | None -> fail "unknown served_from_cache value %S" s));
  }

(* ------------------------------------------------------------------ *)
(* State directory                                                     *)

let jobs_root ~state_dir = Filename.concat state_dir "jobs"
let dir ~state_dir id = Filename.concat (jobs_root ~state_dir) (string_of_int id)
let json_path ~state_dir id = Filename.concat (dir ~state_dir id) "job.json"
let checkpoint_path ~state_dir id = Filename.concat (dir ~state_dir id) "checkpoint"

let save ~state_dir info =
  Ftb_inject.Persist.mkdir_p (dir ~state_dir info.id);
  Ftb_inject.Persist.save_enveloped ~path:(json_path ~state_dir info.id) (fun b ->
      Buffer.add_string b (Json.to_string (info_to_json info));
      Buffer.add_char b '\n')

let load_all ~state_dir =
  let root = jobs_root ~state_dir in
  let entries = try Sys.readdir root with Sys_error _ -> [||] in
  Array.to_list entries
  |> List.filter_map (fun entry ->
         match int_of_string_opt entry with
         | None -> None
         | Some id ->
             (* A descriptor that fails envelope verification or no longer
                decodes is quarantined as evidence and skipped — a corrupt
                job must not brick the daemon, and must never resume from
                lying state. *)
             Ftb_inject.Persist.load_or_quarantine ~path:(json_path ~state_dir id)
               (fun path ->
                 let contents = Ftb_inject.Persist.load_enveloped ~path in
                 try info_of_json (Json.of_string contents)
                 with Decode_error msg | Json.Parse_error msg ->
                   raise (Ftb_inject.Persist.Format_error (path ^ ": " ^ msg))))
  |> List.sort (fun a b -> compare a.id b.id)
