module Ir = Ftb_ir.Ir
module Golden = Ftb_trace.Golden
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Checkpoint = Ftb_campaign.Checkpoint

type status = Hit of Profile.section | Miss

type planned = {
  plan : Section.plan;
  statuses : status array;
  hit_sections : int;
  miss_sections : int;
  hit_cases : int;
  total_cases : int;
}

let full_hit p = p.miss_sections = 0
let any_hit p = p.hit_cases > 0

(* A cached section profile is accepted only if every redundant field
   agrees with the plan — the key already implies all of this, but a
   store is an external artifact and the cost of re-checking is nil
   compared to the cost of composing a wrong byte. The exit-fingerprint
   chain check (profile exit = plan's golden exit for that section)
   additionally rejects a consistent-but-stale artifact should the key
   scheme ever change shape without a version bump. *)
let accept (plan : Section.plan) (s : Section.section) (p : Profile.section) =
  p.Profile.model = Models.spec_to_string plan.Section.model
  && p.Profile.width = plan.Section.width
  && p.Profile.site_lo = s.Section.site_lo
  && p.Profile.sites = s.Section.site_hi - s.Section.site_lo
  && p.Profile.entry_fp = s.Section.entry_fp
  && p.Profile.exit_fp = s.Section.exit_fp

let probe ?(trust_unaudited = false) store ~ir ~golden ~model ~fuel =
  match Section.sectionize ~ir ~golden ~model ~fuel with
  | None -> None
  | Some plan ->
      let statuses =
        Array.map
          (fun (s : Section.section) ->
            if s.Section.site_hi = s.Section.site_lo then
              (* Zero-site section: nothing to cache or execute. *)
              Hit
                {
                  Profile.key = s.Section.key;
                  model = Models.spec_to_string model;
                  width = plan.Section.width;
                  site_lo = s.Section.site_lo;
                  sites = 0;
                  entry_fp = s.Section.entry_fp;
                  exit_fp = s.Section.exit_fp;
                  prov = Profile.prov_local;
                  outcomes = "";
                }
            else
              match Store.find store ~key:s.Section.key with
              | Some (Profile.Section p)
                when accept plan s p
                     && (trust_unaudited || Profile.prov_trusted p.Profile.prov)
                ->
                  Hit p
              | Some _ | None -> Miss)
          plan.Section.sections
      in
      let hit_sections = ref 0 and miss_sections = ref 0 and hit_cases = ref 0 in
      Array.iteri
        (fun i status ->
          let s = plan.Section.sections.(i) in
          let cases = (s.Section.site_hi - s.Section.site_lo) * plan.Section.width in
          match status with
          | Hit _ ->
              incr hit_sections;
              hit_cases := !hit_cases + cases
          | Miss -> incr miss_sections)
        statuses;
      Some
        {
          plan;
          statuses;
          hit_sections = !hit_sections;
          miss_sections = !miss_sections;
          hit_cases = !hit_cases;
          total_cases = plan.Section.sites * plan.Section.width;
        }

(* ------------------------------------------------------------------ *)
(* Boundary profiles: the full-hit fast path. *)

let probe_boundary ?(trust_unaudited = false) store ~ir ~model ~fuel =
  match Section.boundary_key ~ir ~model ~fuel with
  | exception Invalid_argument _ -> None
  | key -> (
      match Store.find store ~key with
      | Some (Profile.Boundary b)
        when b.Profile.bmodel = Models.spec_to_string model
             && b.Profile.bwidth = Models.spec_width model
             && (trust_unaudited || Profile.prov_trusted b.Profile.bprov) ->
          Some b
      | Some _ | None -> None)

let checkpoint_of_boundary (b : Profile.boundary) ~program ~shard_size =
  if shard_size <= 0 then invalid_arg "Compose.checkpoint_of_boundary: shard_size";
  let model =
    match Models.spec_of_string b.Profile.bmodel with
    | Ok model -> model
    | Error msg -> invalid_arg ("Compose.checkpoint_of_boundary: " ^ msg)
  in
  let total = b.Profile.bsites * b.Profile.bwidth in
  let shards = (total + shard_size - 1) / shard_size in
  {
    Checkpoint.program;
    sites = b.Profile.bsites;
    shard_size;
    model;
    fingerprint = b.Profile.golden_fp;
    completed = Array.make shards true;
    outcomes = Bytes.of_string b.Profile.boutcomes;
  }

let put_boundary ?(prov = Profile.prov_local) store ~ir ~model ~fuel ~golden_fp
    ~sites ~outcomes =
  match Section.boundary_key ~ir ~model ~fuel with
  | exception Invalid_argument _ -> ()
  | key ->
      let masked, sdc, crash = Profile.count_outcomes (Bytes.to_string outcomes) in
      Store.put store
        (Profile.Boundary
           {
             Profile.bkey = key;
             bmodel = Models.spec_to_string model;
             bwidth = Models.spec_width model;
             bsites = sites;
             golden_fp;
             masked;
             sdc;
             crash;
             bprov = prov;
             boutcomes = Bytes.to_string outcomes;
           })

(* ------------------------------------------------------------------ *)
(* Checkpoint seeding: partial hits ride the existing resume machinery.

   Cached sections' bytes are blitted into a fresh checkpoint and every
   shard that lies entirely inside cached case ranges is marked
   completed. The engine then schedules only the remaining shards — a
   reduced campaign that the daemon's pool, or the fleet's leases, drain
   exactly like a resumed one; a fully-seeded checkpoint schedules zero
   waves. Hit cases inside a straddling shard are recomputed (bytes
   land identically), so seeding never affects correctness, only work. *)

let seed_checkpoint p golden ~shard_size =
  let plan = p.plan in
  let cp = Checkpoint.create ~model:plan.Section.model golden ~shard_size in
  let width = plan.Section.width in
  Array.iteri
    (fun i status ->
      match status with
      | Miss -> ()
      | Hit prof ->
          let s = plan.Section.sections.(i) in
          let off = s.Section.site_lo * width in
          Bytes.blit_string prof.Profile.outcomes 0 cp.Checkpoint.outcomes off
            (String.length prof.Profile.outcomes))
    p.statuses;
  (* Coverage bitmap over cases, then a shard is completed iff all its
     cases are covered. Sections are few and contiguous; this is O(total)
     once per submission, dwarfed by a single executed shard. *)
  let total = plan.Section.sites * width in
  let covered = Bytes.make total '\000' in
  Array.iteri
    (fun i status ->
      match status with
      | Miss -> ()
      | Hit _ ->
          let s = plan.Section.sections.(i) in
          Bytes.fill covered (s.Section.site_lo * width)
            ((s.Section.site_hi - s.Section.site_lo) * width)
            '\001')
    p.statuses;
  Array.iteri
    (fun shard _ ->
      let lo = shard * shard_size in
      let hi = min total (lo + shard_size) in
      let all = ref (hi > lo) in
      for case = lo to hi - 1 do
        if Bytes.get covered case = '\000' then all := false
      done;
      if !all then cp.Checkpoint.completed.(shard) <- true)
    cp.Checkpoint.completed;
  cp

let harvest ?(prov = Profile.prov_local) store p ~outcomes =
  let plan = p.plan in
  let width = plan.Section.width in
  Array.iteri
    (fun i status ->
      match status with
      | Hit _ -> ()
      | Miss ->
          let s = plan.Section.sections.(i) in
          let lo = s.Section.site_lo * width in
          let len = (s.Section.site_hi - s.Section.site_lo) * width in
          Store.put store
            (Profile.Section
               {
                 Profile.key = s.Section.key;
                 model = Models.spec_to_string plan.Section.model;
                 width;
                 site_lo = s.Section.site_lo;
                 sites = s.Section.site_hi - s.Section.site_lo;
                 entry_fp = s.Section.entry_fp;
                 exit_fp = s.Section.exit_fp;
                 prov;
                 outcomes = Bytes.sub_string outcomes lo len;
               }))
    p.statuses

(* ------------------------------------------------------------------ *)
(* Direct composed campaign (CLI, bench, tests). *)

type provenance = Cold | Partial | Full

type report = {
  outcomes : Bytes.t;
  sites : int;
  width : int;
  provenance : provenance;
  sections_total : int;
  sections_hit : int;
  cases_reused : int;
  cases_executed : int;
}


let run ?fuel ?(model = Models.default_spec) store ~ir golden =
  let width = Models.spec_width model in
  let sites = Golden.sites golden in
  let golden_fp = Checkpoint.fingerprint_of_golden golden in
  let finish ~outcomes ~provenance ~sections_total ~sections_hit ~cases_reused
      ~cases_executed =
    (* Keep the boundary artifact fresh on every path — a later
       byte-identical resubmission is then a single store read. *)
    put_boundary store ~ir ~model ~fuel ~golden_fp ~sites ~outcomes;
    {
      outcomes;
      sites;
      width;
      provenance;
      sections_total;
      sections_hit;
      cases_reused;
      cases_executed;
    }
  in
  match probe_boundary store ~ir ~model ~fuel with
  | Some b when b.Profile.bsites = sites && b.Profile.golden_fp = golden_fp ->
      {
        outcomes = Bytes.of_string b.Profile.boutcomes;
        sites;
        width;
        provenance = Full;
        sections_total = 0;
        sections_hit = 0;
        cases_reused = sites * width;
        cases_executed = 0;
      }
  | _ -> (
      match probe store ~ir ~golden ~model ~fuel with
      | None ->
          (* Unsectionizable: plain from-scratch campaign; the boundary
             profile still gets stored, so resubmissions hit. *)
          let gt = Executor.ground_truth_model ?fuel model golden in
          finish ~outcomes:(Bytes.copy gt.Ground_truth.outcomes) ~provenance:Cold
            ~sections_total:0 ~sections_hit:0 ~cases_reused:0
            ~cases_executed:(sites * width)
      | Some p ->
          let total = p.total_cases in
          let outcomes = Bytes.make total '\000' in
          Array.iteri
            (fun i status ->
              let s = p.plan.Section.sections.(i) in
              let lo = s.Section.site_lo * width and hi = s.Section.site_hi * width in
              match status with
              | Hit prof ->
                  Bytes.blit_string prof.Profile.outcomes 0 outcomes lo (hi - lo)
              | Miss -> Executor.range_into_model ?fuel model golden ~lo ~hi outcomes ~off:lo)
            p.statuses;
          harvest store p ~outcomes;
          let provenance =
            if full_hit p then Full else if any_hit p then Partial else Cold
          in
          finish ~outcomes ~provenance ~sections_total:(Array.length p.statuses)
            ~sections_hit:p.hit_sections ~cases_reused:p.hit_cases
            ~cases_executed:(total - p.hit_cases))
