(* The correctness gate, run after the timed loop on the stopped daemon's
   state directory. Each check returns the list of mismatches it found. *)

module Golden = Ftb_trace.Golden
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Checkpoint = Ftb_campaign.Checkpoint
module Adaptive = Ftb_core.Adaptive
module Bstore = Ftb_plan.Boundary_store
module Job = Ftb_service.Job
module Json = Ftb_service.Json
module Server = Ftb_service.Server

let goldens = Hashtbl.create 8

(* Golden runs are made on the calling domain only: the kernel registry is
   lazy, and forcing a lazy value from two domains at once is an error. *)
let golden bench =
  match Hashtbl.find_opt goldens bench with
  | Some g -> g
  | None ->
      let g = Golden.run (Ftb_kernels.Suite.find bench) in
      Hashtbl.add goldens bench g;
      g

let outcomes_of ~state (r : Live.record) =
  let j = r.Live.job in
  let ck =
    Checkpoint.load ~model:j.Jobs.model
      ~path:(Job.checkpoint_path ~state_dir:state r.Live.id)
      ~shard_size:r.Live.info.Job.spec.Job.shard_size (golden j.Jobs.bench)
  in
  ck.Checkpoint.outcomes

(* The exhaustive reference: the unfueled cone-replay executor, the
   fastest in-process path. The catalogue has no case that comes near the
   daemon's fuel watchdog, so fueled and unfueled bytes agree. *)
let references = Hashtbl.create 16

(* The reference result and the seconds it took (the traced run quotes
   them as the best-path executor throughput). *)
let timed_reference (j : Jobs.job) =
  let key = (j.Jobs.bench, Models.spec_to_string j.Jobs.model) in
  match Hashtbl.find_opt references key with
  | Some r -> r
  | None ->
      let g = golden j.Jobs.bench in
      let t0 = Unix.gettimeofday () in
      let gt = Executor.ground_truth_model ~domains:2 j.Jobs.model g in
      let r = (gt, Unix.gettimeofday () -. t0) in
      Hashtbl.add references key r;
      r

let reference j = fst (timed_reference j)

let exhaustive ~state records =
  List.filter_map
    (fun (r : Live.record) ->
      let j = r.Live.job in
      let gt = reference j in
      let masked = ref 0 and sdc = ref 0 and crash = ref 0 in
      Ground_truth.counts gt ~masked ~sdc ~crash;
      let c = r.Live.info.Job.counts in
      match outcomes_of ~state r with
      | bytes when not (Bytes.equal bytes gt.Ground_truth.outcomes) ->
          Some (Printf.sprintf "job %d (%s): outcome bytes differ from the executor" r.Live.id (Jobs.describe j))
      | _ when (c.Job.masked, c.Job.sdc, c.Job.crash) <> (!masked, !sdc, !crash) ->
          Some (Printf.sprintf "job %d (%s): counts differ from the executor" r.Live.id (Jobs.describe j))
      | _ -> None
      | exception e ->
          Some (Printf.sprintf "job %d (%s): %s" r.Live.id (Jobs.describe j) (Printexc.to_string e)))
    (List.filter (fun (r : Live.record) -> r.Live.job.Jobs.kind = Jobs.Exhaustive) records)

(* Run [f] over [xs] on [domains] domains; results in input order. *)
let par_map ~domains f xs =
  let xs = Array.of_list xs in
  let out = Array.make (Array.length xs) None in
  let next = Atomic.make 0 in
  let rec work () =
    let i = Atomic.fetch_and_add next 1 in
    if i < Array.length xs then begin
      out.(i) <- Some (try Ok (f xs.(i)) with e -> Error e);
      work ()
    end
  in
  let helpers = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  work ();
  List.iter Domain.join helpers;
  Array.to_list
    (Array.map (function Some (Ok v) -> v | Some (Error e) -> raise e | None -> assert false) out)

(* The adaptive reference: the serial in-process [Adaptive.run_model]. *)
let serial_boundary (j : Jobs.job) g =
  Adaptive.run_model ~config:Adaptive.default_config ~spec:j.Jobs.model ~fuel:j.Jobs.fuel
    (Ftb_util.Rng.create ~seed:j.Jobs.seed) g

let store_key (j : Jobs.job) =
  Bstore.key_of ~bench:j.Jobs.bench
    ~fingerprint:(Ftb_util.Fingerprint.of_floats (golden j.Jobs.bench).Golden.values)
    ~spec:j.Jobs.model ~fuel:(Some j.Jobs.fuel) ~config:Adaptive.default_config ~seed:j.Jobs.seed

let digest thresholds = Ftb_util.Fingerprint.of_floats thresholds

let adaptive ~state records =
  let records = List.filter (fun (r : Live.record) -> r.Live.job.Jobs.kind = Jobs.Adaptive) records in
  let inputs = List.map (fun (r : Live.record) -> (r, golden r.Live.job.Jobs.bench)) records in
  let serial =
    par_map ~domains:2
      (fun ((r : Live.record), g) ->
        serial_boundary r.Live.job g)
      inputs
  in
  let store = Bstore.open_ ~root:(Server.boundaries_dir ~state_dir:state) in
  let failures =
    List.filter_map
      (fun ((r : Live.record), (res : Adaptive.result)) ->
        let j = r.Live.job in
        match Bstore.find store ~key:(store_key j) with
        | None -> Some (Printf.sprintf "job %d (%s): no stored boundary" r.Live.id (Jobs.describe j))
        | Some e ->
            if e.Bstore.samples <> Array.length res.Adaptive.samples then
              Some (Printf.sprintf "job %d (%s): %d samples, serial run drew %d" r.Live.id (Jobs.describe j)
                   e.Bstore.samples (Array.length res.Adaptive.samples))
            else if digest e.Bstore.thresholds <> digest res.Adaptive.boundary.Ftb_core.Boundary.thresholds then
              Some (Printf.sprintf "job %d (%s): boundary digest differs from the serial run" r.Live.id (Jobs.describe j))
            else if r.Live.info.Job.counts.Job.cases_done <> e.Bstore.samples then
              Some (Printf.sprintf "job %d (%s): reported sample count differs" r.Live.id (Jobs.describe j))
            else None)
      (List.combine records serial)
  in
  failures

(* Warm-served exhaustive jobs carry the bytes of their cold originals;
   boundary_query answers equal Boundary_store.query on the stored entry. *)
let warm ~state ~primed warm_ops =
  let original_bytes = Hashtbl.create 8 in
  let bytes_of_original (j : Jobs.job) =
    match Hashtbl.find_opt original_bytes j with
    | Some b -> b
    | None ->
        let r = List.find (fun (r : Live.record) -> r.Live.job = j) primed in
        let b = outcomes_of ~state r in
        Hashtbl.add original_bytes j b;
        b
  in
  let store = Bstore.open_ ~root:(Server.boundaries_dir ~state_dir:state) in
  let latest = Hashtbl.create 4 in
  let entry bench =
    match Hashtbl.find_opt latest bench with
    | Some e -> e
    | None ->
        let e = Bstore.find_latest store ~bench ~spec:Jobs.bf64 () in
        Hashtbl.add latest bench e;
        e
  in
  List.filter_map
    (fun (op, _, reply, record) ->
      match (op, reply, record) with
      | Jobs.Resubmit j, _, Some (r : Live.record) when j.Jobs.kind = Jobs.Exhaustive -> (
          match outcomes_of ~state r with
          | b when Bytes.equal b (bytes_of_original j) -> None
          | _ -> Some (Printf.sprintf "job %d (%s): warm bytes differ from the original" r.Live.id (Jobs.describe j))
          | exception e -> Some (Printf.sprintf "job %d: %s" r.Live.id (Printexc.to_string e)))
      | Jobs.Query { bench; site; bit }, Some reply, _ -> (
          match entry bench with
          | None -> Some ("no stored boundary for " ^ bench)
          | Some e ->
              let p = Bstore.query e ~site ~bit in
              (* Non-finite floats travel as strings; compare bit patterns. *)
              let num k =
                match Json.member k reply with
                | Some (Json.String s) -> Option.map Int64.bits_of_float (float_of_string_opt s)
                | Some v -> Option.map Int64.bits_of_float (Json.to_float v)
                | None -> None
              in
              let bits x = Some (Int64.bits_of_float x) in
              let same =
                Option.bind (Json.member "outcome" reply) Json.to_str
                = Some (match p.Bstore.outcome with `Masked -> "masked" | `Sdc -> "sdc")
                && num "threshold" = bits p.Bstore.threshold
                && num "injected_error" = bits p.Bstore.injected_error
                && Option.bind (Json.member "support" reply) Json.to_int = Some p.Bstore.site_support
                && num "uncertainty" = bits p.Bstore.entry_uncertainty
              in
              if same then None
              else Some (Printf.sprintf "boundary_query %s (%d, %d) differs from Boundary_store.query" bench site bit))
      | _ -> None)
    warm_ops
