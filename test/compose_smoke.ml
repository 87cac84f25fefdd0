(* Compositional cache smoke test (dune alias @compose-smoke).

   End-to-end gate for the profile cache, differential throughout:

   1. Direct composer: for every IR kernel (tiny configs) x every fault
      model — cold composed campaign, then a full-hit resubmission, both
      byte-identical to Executor.ground_truth_model; the full hit must
      execute zero cases.
   2. One-section edit: a golden-value-preserving edit to the first
      peeled section of a blocked-gemm kernel re-executes only that
      section's cases, and the composed boundary byte-matches the edited
      program's from-scratch campaign.
   3. Daemon: submit -> resubmit identical (served from the boundary
      cache without scheduling any pool or fleet work) -> resubmit a
      one-section edit (reduced campaign), each byte-identical to the
      direct campaign, with cache provenance reported over the wire. *)

module Ir = Ftb_ir.Ir
module Golden = Ftb_trace.Golden
module Models = Ftb_inject.Models
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Checkpoint = Ftb_campaign.Checkpoint
module Ir_kernels = Ftb_kernels.Ir_kernels
module Section = Ftb_compose.Section
module Store = Ftb_compose.Store
module Compose = Ftb_compose.Compose
module Server = Ftb_service.Server
module Client = Ftb_service.Client
module Job = Ftb_service.Job
module Json = Ftb_service.Json

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

let fresh_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Part 1: direct composer, every kernel x every model.                *)

let kernels =
  [
    ("ir.cg", fun () -> Ir_kernels.cg ~grid:3 ~iterations:3 ~tolerance:1e-4 ~record_init:true);
    ("ir.lu", fun () -> Ir_kernels.lu ~n:6 ~block:3 ~seed:7 ~tolerance:1e-4);
    ("ir.fft", fun () -> Ir_kernels.fft ~n1:4 ~n2:4 ~seed:11 ~tolerance:1.0);
    ("ir.jacobi", fun () -> Ir_kernels.jacobi ~grid:3 ~sweeps:2 ~tolerance:1e-4);
    ("ir.gemm", fun () -> Ir_kernels.gemm ~n:4 ~block:2 ~seed:21 ~tolerance:1e-3);
    ("ir.matmul", fun () -> Ir_kernels.matmul ~n:4 ~seed:9 ~tolerance:1e-3);
    ("ir.stencil", fun () -> Ir_kernels.stencil ~size:4 ~sweeps:2 ~seed:3 ~tolerance:1e-4);
  ]

let specs =
  List.map (fun model -> { Models.model; seed = 0 }) Models.all_discrete
  @ [ { Models.model = Models.Random_value { lo = -4.; hi = 4. }; seed = 9 } ]

let direct_part () =
  let root = fresh_dir "ftb-compose-smoke" in
  let store = Store.open_ ~root in
  List.iter
    (fun (name, build) ->
      let ir = build () in
      let golden = Golden.run (Ftb_ir.Pipeline.to_program ir) in
      List.iter
        (fun spec ->
          let tag = Printf.sprintf "%s/%s" name (Models.spec_to_string spec) in
          let direct = Executor.ground_truth_model spec golden in
          let cold = Compose.run ~model:spec store ~ir golden in
          check (tag ^ ": cold composed bytes = direct")
            (Bytes.equal cold.Compose.outcomes direct.Ground_truth.outcomes);
          let hit = Compose.run ~model:spec store ~ir golden in
          check (tag ^ ": resubmission is a full hit")
            (hit.Compose.provenance = Compose.Full);
          check (tag ^ ": full hit executed zero cases")
            (hit.Compose.cases_executed = 0);
          check (tag ^ ": full-hit bytes = direct")
            (Bytes.equal hit.Compose.outcomes direct.Ground_truth.outcomes))
        specs)
    kernels;
  let stats = Store.stats store in
  check
    (Printf.sprintf "store populated (%d entries, %d boundaries)" stats.Store.entries
       stats.Store.boundaries)
    (stats.Store.entries > 0 && stats.Store.boundaries > 0 && stats.Store.quarantined = 0);
  rm_rf root

(* ------------------------------------------------------------------ *)
(* Part 2: one-section edit on a peelable blocked kernel.              *)

(* A gemm-style kernel: one top-level loop over [nb] panels that the
   sectionizer peels into [nb] sections. [edit_first] guards a
   golden-value-preserving edit (commuted multiplication operands —
   bit-identical products for the finite golden values) under
   [kb = 0], so after per-iteration specialization only the first
   section's canonical text changes. *)
let panel_kernel ~n ~nb ~edit_first () =
  let t = Ir.create ~name:"smoke.panels" ~tolerance:1e-3 in
  let rng = ref 77 in
  let rand () =
    rng := (!rng * 1103515245) + 12345;
    float_of_int (!rng land 0xffff) /. 65536.
  in
  let a = Ir.array t ~name:"a" ~init:(Array.init n (fun _ -> rand ())) in
  let c = Ir.array t ~name:"c" ~init:(Array.make n 0.) in
  Ir.output_array t c;
  let kb = Ir.ireg t and i = Ir.ireg t in
  let acc = Ir.freg t in
  let open Ir in
  let base = Imul (Ireg kb, Iconst (n / nb)) in
  let idx = Iadd (base, Ireg i) in
  let straight = Fmul (Fload (a, idx), Fconst 1.5) in
  let swapped = Fmul (Fconst 1.5, Fload (a, idx)) in
  let body_at mul =
    [
      For
        ( i,
          Iconst 0,
          Iconst (n / nb),
          [
            Fassign (acc, mul, "panel.mul");
            Store (c, idx, Fadd (Freg acc, Fconst 0.25), "panel.store");
          ] );
    ]
  in
  let inner =
    if edit_first then
      [ If (Icmp (`Eq, Ireg kb, Iconst 0), body_at swapped, body_at straight) ]
    else body_at straight
  in
  Ir.set_body t [ For (kb, Iconst 0, Iconst nb, inner) ];
  t

let edit_part () =
  let root = fresh_dir "ftb-compose-edit" in
  let store = Store.open_ ~root in
  let nb = 4 and n = 16 in
  let model = Models.default_spec in
  let base = panel_kernel ~n ~nb ~edit_first:false () in
  let edited = panel_kernel ~n ~nb ~edit_first:true () in
  let golden_base = Golden.run (Ftb_ir.Pipeline.to_program base) in
  let golden_edit = Golden.run (Ftb_ir.Pipeline.to_program edited) in
  check "edit preserves the golden output bit-for-bit"
    (Checkpoint.fingerprint_of_golden golden_base
    = Checkpoint.fingerprint_of_golden golden_edit);
  let cold = Compose.run store ~ir:base golden_base in
  check
    (Printf.sprintf "panel kernel peels into %d sections (got %d)" nb
       cold.Compose.sections_total)
    (cold.Compose.sections_total = nb);
  let direct_edit = Executor.ground_truth_model model golden_edit in
  let partial = Compose.run store ~ir:edited golden_edit in
  let per_section = Golden.sites golden_edit / nb * partial.Compose.width in
  check "one-section edit is a partial hit" (partial.Compose.provenance = Compose.Partial);
  check
    (Printf.sprintf "only the edited section re-executes (%d cases, expected %d)"
       partial.Compose.cases_executed per_section)
    (partial.Compose.cases_executed = per_section);
  check "edited composed bytes = edited direct"
    (Bytes.equal partial.Compose.outcomes direct_edit.Ground_truth.outcomes);
  rm_rf root

(* ------------------------------------------------------------------ *)
(* Part 3: daemon — submit, resubmit identical, resubmit one edit.     *)

let get_ok what = function
  | Ok v -> v
  | Error (e : Client.error) ->
      check what false;
      failwith (Printf.sprintf "%s: daemon error %s: %s" what e.Client.code e.Client.message)

let daemon_part () =
  let state_dir = fresh_dir "ftb-compose-daemon" in
  let nb = 4 and n = 16 in
  (* The "benchmark" the daemon resolves is a mutable slot, so
     resubmitting after flipping it models a developer editing one
     section of a program between submissions. *)
  let current = ref (panel_kernel ~n ~nb ~edit_first:false) in
  let resolve name =
    if name = "smoke.panels" then Ftb_ir.Pipeline.to_program (!current ())
    else invalid_arg (Printf.sprintf "unknown benchmark %S" name)
  in
  let resolve_ir name = if name = "smoke.panels" then Some (!current ()) else None in
  (* The wave-runner factory is consulted exactly once per job that
     reaches the engine — a submit-time full hit must never get there. *)
  let engine_jobs = ref 0 in
  let config =
    {
      (Server.default_config ~state_dir) with
      Server.resolve;
      resolve_ir;
      wave_runner =
        Some
          (fun ~job_id:_ ~bench:_ ~fuel:_ ~model:_ ~golden:_ ->
            incr engine_jobs;
            None);
    }
  in
  let t = Server.create config in
  Server.start t;
  let server_fd, client_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Thread.create (fun () -> Server.serve_connection t server_fd) () in
  let client = Client.of_fd client_fd in
  let spec =
    { (Job.default_spec ~bench:"smoke.panels") with Job.shard_size = 128 }
  in
  let model = spec.Job.model in
  let golden_base = Golden.run (Ftb_ir.Pipeline.to_program (panel_kernel ~n ~nb ~edit_first:false ())) in
  let direct_base = Executor.ground_truth_model model golden_base in
  let ckpt_bytes id golden =
    match
      Checkpoint.load
        ~path:(Job.checkpoint_path ~state_dir id)
        ~shard_size:spec.Job.shard_size golden
    with
    | state -> if Checkpoint.is_complete state then Some state.Checkpoint.outcomes else None
    | exception _ -> None
  in

  (* Cold submission: runs for real, harvested into the store. *)
  let id1 = get_ok "daemon: cold submit" (Client.submit client spec) in
  let final1 = get_ok "daemon: cold watch" (Client.watch client id1) in
  check "daemon: cold job completed" (final1.Job.status = Job.Completed);
  check "daemon: cold job ran the engine" (!engine_jobs = 1);
  check "daemon: cold job served_from_cache = none" (final1.Job.cache = Job.Cache_none);
  check "daemon: cold checkpoint bytes = direct"
    (ckpt_bytes id1 golden_base = Some direct_base.Ground_truth.outcomes);

  (* Byte-identical resubmission: served whole at submit time — job is
     already Completed, the engine (and thus pool/fleet) never sees it. *)
  let id2 = get_ok "daemon: resubmit identical" (Client.submit client spec) in
  check "daemon: resubmission is a fresh job" (id2 <> id1);
  let job2 = get_ok "daemon: resubmission status" (Client.status client id2) in
  check "daemon: resubmission already completed" (job2.Job.status = Job.Completed);
  check "daemon: resubmission served_from_cache = full (over the wire)"
    (job2.Job.cache = Job.Cache_full);
  check "daemon: full hit scheduled no engine work" (!engine_jobs = 1);
  check "daemon: full-hit counts cover the case space"
    (job2.Job.counts.Job.cases_done = job2.Job.counts.Job.cases_total
    && job2.Job.counts.Job.cases_total
       = Golden.sites golden_base * Models.spec_width model
    && job2.Job.counts.Job.masked + job2.Job.counts.Job.sdc + job2.Job.counts.Job.crash
      = job2.Job.counts.Job.cases_total);
  check "daemon: full-hit checkpoint bytes = direct"
    (ckpt_bytes id2 golden_base = Some direct_base.Ground_truth.outcomes);
  let final2 = get_ok "daemon: watch of served job" (Client.watch client id2) in
  check "daemon: watch of served job returns done immediately"
    (final2.Job.status = Job.Completed && final2.Job.cache = Job.Cache_full);

  (* One-section edit: a reduced campaign (only the missed section's
     shards), still byte-identical to the edited program's direct run. *)
  current := panel_kernel ~n ~nb ~edit_first:true;
  let golden_edit = Golden.run (Ftb_ir.Pipeline.to_program (!current ())) in
  let direct_edit = Executor.ground_truth_model model golden_edit in
  let id3 = get_ok "daemon: submit edited" (Client.submit client spec) in
  let final3 = get_ok "daemon: watch edited" (Client.watch client id3) in
  check "daemon: edited job completed" (final3.Job.status = Job.Completed);
  check "daemon: edited job served_from_cache = partial"
    (final3.Job.cache = Job.Cache_partial);
  check "daemon: edited job ran the engine" (!engine_jobs = 2);
  check "daemon: edited checkpoint bytes = edited direct"
    (ckpt_bytes id3 golden_edit = Some direct_edit.Ground_truth.outcomes);

  get_ok "daemon: shutdown" (Client.shutdown client);
  Server.join t;
  Client.close client;
  Thread.join conn;
  rm_rf state_dir

let () =
  direct_part ();
  edit_part ();
  daemon_part ();
  if !failures > 0 then begin
    Printf.printf "%d compose smoke failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "compose smoke ok"
