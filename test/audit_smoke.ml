(* Audit smoke test (dune alias @audit-smoke).

   Chaos-style gate for the trust-but-verify layer:

   1. Lying-worker drill: an in-process fleet of three workers, one of
      which silently corrupts its outcome bytes *before* digesting them
      (modelling SDC on the worker, which attestation alone cannot
      catch). With audit re-execution on, the campaign must still
      converge byte-identical to the serial oracle, the liar must be
      quarantined (and its watch event streamed to the client), and the
      operator clear path must re-admit the name.

   2. Cache-provenance gates: fleet-harvested profiles must record who
      computed them; unaudited full hits are refused unless the submitter
      opts in with trust_cache; audited ones serve normally; and after a
      liar is convicted no poisoned profile survives in the store. *)

module Ctx = Ftb_trace.Ctx
module Static = Ftb_trace.Static
module Program = Ftb_trace.Program
module Golden = Ftb_trace.Golden
module Ground_truth = Ftb_inject.Ground_truth
module Executor = Ftb_inject.Executor
module Checkpoint = Ftb_campaign.Checkpoint
module Job = Ftb_service.Job
module Client = Ftb_service.Client
module Server = Ftb_service.Server
module Store = Ftb_compose.Store
module Fleet = Ftb_dist.Fleet
module Worker = Ftb_dist.Worker
module P = Ftb_dist.Worker_proto
module Ir_kernels = Ftb_kernels.Ir_kernels

let failures = ref 0

let check what ok =
  if ok then Printf.printf "ok    %s\n%!" what
  else begin
    incr failures;
    Printf.printf "FAIL  %s\n%!" what
  end

let get_ok what = function
  | Ok v -> v
  | Error (e : Client.error) ->
      check what false;
      failwith (Printf.sprintf "%s: daemon error %s: %s" what e.Client.code e.Client.message)

let fresh_dir tag =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ftb_audit_smoke_%s_%d" tag (Unix.getpid ()))
  in
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists path then rm path;
  Unix.mkdir path 0o755;
  path

(* Part-1 benchmark: damped fixed-point iteration, big enough that all
   three workers commit several shards each. *)
let drill_program =
  let statics = Static.create_table () in
  let tag_load = Static.register statics ~phase:"audit.load" ~label:"x[i]" in
  let tag_iter = Static.register statics ~phase:"audit.iter" ~label:"x[i] update" in
  let tag_out = Static.register statics ~phase:"audit.out" ~label:"sum" in
  let body ctx =
    let x =
      Array.map (fun v -> Ctx.record ctx ~tag:tag_load v) [| 1.0; 2.0; 3.0; 4.0 |]
    in
    for _iter = 1 to 40 do
      for i = 0 to 3 do
        let left = x.((i + 3) mod 4) and right = x.((i + 1) mod 4) in
        x.(i) <- Ctx.record ctx ~tag:tag_iter ((x.(i) +. (0.25 *. (left +. right))) /. 1.5)
      done
    done;
    [| Ctx.record ctx ~tag:tag_out (Array.fold_left ( +. ) 0. x) |]
  in
  Program.make ~name:"audit.drill" ~description:"damped fixed-point iteration"
    ~tolerance:0.05 ~statics body

(* Part-2 benchmark: an IR kernel, so the compositional cache engages. *)
let jacobi () = Ir_kernels.jacobi ~grid:4 ~sweeps:2 ~tolerance:1e-4

let resolve = function
  | "audit.drill" -> drill_program
  | "audit.jacobi" -> Ftb_ir.Pipeline.to_program (jacobi ())
  | name -> invalid_arg (Printf.sprintf "unknown benchmark %S" name)

let resolve_ir name = if name = "audit.jacobi" then Some (jacobi ()) else None
let fuel = 10_000
let lease_ttl = 0.5

(* Every corrupted byte stays a plausible outcome code, so only the audit
   oracle — never a parser — can tell the bytes are wrong. A liar tells
   the truth until [watching] is set: a quarantine event reaches only
   watchers already subscribed, and the first wave can convict a liar
   within milliseconds of the submit, before the client's watch is. *)
let watching = Atomic.make true

let tamper ~bench:_ ~shard:_ b =
  if Atomic.get watching then Bytes.map (fun c -> if c = '\000' then '\001' else '\000') b
  else b

(* ------------------------------------------------------------------ *)
(* Shared scaffolding: an in-process daemon over socketpairs with a
   named worker fleet, wired exactly as the CLI wires it (provenance
   hook, quarantine hook purging the store and notifying watchers). *)

let with_scenario ~tag ~audit_rate ?(quarantine_after = 2) ~workers fn =
  let state_dir = fresh_dir tag in
  let fleet = Fleet.create ~lease_ttl ~audit_rate ~quarantine_after () in
  let config =
    {
      (Server.default_config ~state_dir) with
      Server.domains = 1;
      resolve;
      resolve_ir;
      extension = Some (Fleet.extension fleet);
      wave_runner = Some (Fleet.wave_runner fleet);
      provenance =
        Some
          (fun ~job_id ->
            Fleet.job_provenance fleet ~job_id
            |> Option.map (fun jp ->
                   (jp.Fleet.jp_workers, jp.Fleet.jp_audited)));
    }
  in
  let t = Server.create config in
  Fleet.set_on_quarantine fleet (fun ~name ~disputes ->
      (match Server.store t with
      | Some store -> ignore (Store.invalidate_worker store ~worker:name : int)
      | None -> ());
      Server.notify_quarantine t ~worker:name ~disputes);
  Server.start t;
  let connect () =
    let server_fd, peer_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    ignore (Thread.create (fun () -> Server.serve_connection t server_fd) ());
    peer_fd
  in
  let stop = Atomic.make false in
  let threads =
    List.map
      (fun (name, lies) ->
        Thread.create
          (fun () ->
            ignore
              (Worker.run
                 (Worker.config ~domains:1 ~resolve ~name
                    ?tamper:(if lies then Some tamper else None)
                    ~stop:(fun () -> Atomic.get stop)
                    connect)
                : Worker.stats))
          ())
      workers
  in
  let rec await attempts =
    if Fleet.live_workers fleet >= List.length workers then true
    else if attempts = 0 then false
    else begin
      ignore (Unix.select [] [] [] 0.02);
      await (attempts - 1)
    end
  in
  check (tag ^ ": all workers registered") (await 500);
  (* Once every worker's lease request is parked in the daemon, the first
     wave hands each of them a shard before the local holder claims one:
     the liar and the honest workers are certain to commit remotely. *)
  let rec await_parked attempts =
    if (Fleet.stats fleet).Fleet.parked >= List.length workers then true
    else if attempts = 0 then false
    else begin
      ignore (Unix.select [] [] [] 0.002);
      await_parked (attempts - 1)
    end
  in
  check (tag ^ ": every worker's lease request parked") (await_parked 5000);
  let client = Client.of_fd (connect ()) in
  fn ~state_dir ~fleet ~server:t ~client;
  Atomic.set stop true;
  (* A quarantined worker has already exited on its refused lease poll;
     the others detach on [stop]. *)
  List.iter Thread.join threads;
  get_ok (tag ^ ": shutdown") (Client.shutdown client);
  Server.join t;
  Client.close client

let ckpt_bytes ~state_dir ~shard_size id golden =
  match
    Checkpoint.load ~path:(Job.checkpoint_path ~state_dir id) ~shard_size golden
  with
  | state ->
      if Checkpoint.is_complete state then Some state.Checkpoint.outcomes else None
  | exception _ -> None

(* ------------------------------------------------------------------ *)
(* Part 1: one liar among three workers.                                *)

let lying_worker_drill () =
  with_scenario ~tag:"liar" ~audit_rate:1.0 ~quarantine_after:1
    ~workers:[ ("honest-1", false); ("honest-2", false); ("liar", true) ]
    (fun ~state_dir ~fleet ~server:_ ~client ->
      let shard_size = 128 in
      let spec =
        { (Job.default_spec ~bench:"audit.drill") with Job.shard_size; fuel = Some fuel }
      in
      (* The liar starts lying once the watch is subscribed: on the first
         progress event after the snapshot, which only a subscriber gets. *)
      Atomic.set watching false;
      let id = get_ok "liar: submit" (Client.submit client spec) in
      let quarantine_events = ref [] in
      let progress = ref 0 in
      let final =
        get_ok "liar: watch"
          (Client.watch client id ~on_event:(function
             | Client.Progress _ | Client.Round _ ->
                 incr progress;
                 if !progress >= 2 then Atomic.set watching true
             | Client.Worker_quarantined { worker; disputes; _ } ->
                 quarantine_events := (worker, disputes) :: !quarantine_events))
      in
      check "liar: job completed despite the lying worker"
        (final.Job.status = Job.Completed);
      (* The whole point: a worker lying about outcome bytes must not be
         able to change a single byte of the result. *)
      let golden = Golden.run drill_program in
      let reference = Ground_truth.run ~fuel golden in
      check "liar: outcome bytes bit-identical to serial oracle"
        (ckpt_bytes ~state_dir ~shard_size id golden
        = Some reference.Ground_truth.outcomes);
      check "liar: quarantine event streamed to the watching client"
        (List.exists (fun (w, d) -> w = "liar" && d >= 1) !quarantine_events);
      check "liar: no honest worker was quarantined"
        (List.for_all (fun (w, _) -> w = "liar") !quarantine_events);
      let s = Fleet.stats fleet in
      check "liar: shards were audited" (s.Fleet.audited > 0);
      check "liar: disputes recorded" (s.Fleet.disputed >= 1);
      check "liar: exactly one worker quarantined" (s.Fleet.quarantined = 1);
      check "liar: tampering happened upstream of the digest" (s.Fleet.bad_digest = 0);
      check "liar: honest workers committed remotely" (s.Fleet.remote_committed > 0);
      (* Operator workflow over the wire: the barred name is refused at
         registration, listed in the trust ledger, and re-admitted only
         after an explicit clear. *)
      let ext cmd json =
        match Fleet.extension fleet ~cmd json with
        | Some reply -> reply
        | None -> failwith ("no handler for " ^ cmd)
      in
      (match P.check_ok (ext "worker_register" (P.register ~name:"liar" ~domains:1 ())) with
      | () -> check "liar: barred name refused at registration" false
      | exception P.Decode_error _ ->
          check "liar: barred name refused at registration" true);
      let _rows, barred = P.parse_workers (ext "worker_stats" P.workers_request) in
      check "liar: trust ledger bars the liar with its dispute count"
        (match barred with [ ("liar", d) ] -> d >= 1 | _ -> false);
      check "liar: operator clear lifts the bar"
        (P.parse_cleared (ext "worker_clear" (P.workers_clear_request ~name:"liar")));
      match P.check_ok (ext "worker_register" (P.register ~name:"liar" ~domains:1 ())) with
      | () -> check "liar: cleared name registers again" true
      | exception P.Decode_error _ -> check "liar: cleared name registers again" false)

(* ------------------------------------------------------------------ *)
(* Part 2: provenance gates on the compositional cache.                 *)

let golden_jacobi () = Golden.run (Ftb_ir.Pipeline.to_program (jacobi ()))

let unaudited_provenance_gate () =
  with_scenario ~tag:"unaudited" ~audit_rate:0. ~workers:[ ("alpha", false) ]
    (fun ~state_dir ~fleet:_ ~server:t ~client ->
      let shard_size = 128 in
      let spec =
        { (Job.default_spec ~bench:"audit.jacobi") with Job.shard_size; fuel = Some fuel }
      in
      let golden = golden_jacobi () in
      let reference = Executor.ground_truth_model ~fuel spec.Job.model golden in
      let id1 = get_ok "unaudited: submit" (Client.submit client spec) in
      let final1 = get_ok "unaudited: watch" (Client.watch client id1) in
      check "unaudited: cold job completed" (final1.Job.status = Job.Completed);
      check "unaudited: cold job ran for real" (final1.Job.cache = Job.Cache_none);
      check "unaudited: cold bytes = oracle"
        (ckpt_bytes ~state_dir ~shard_size id1 golden
        = Some reference.Ground_truth.outcomes);
      (* Harvested with fleet provenance but no audit: the store must
         record the distrust... *)
      (match Server.store t with
      | Some store ->
          check "unaudited: store records unaudited fleet provenance"
            ((Store.stats store).Store.unaudited > 0)
      | None -> check "unaudited: store records unaudited fleet provenance" false);
      (* ...and the submit-time full-hit fast path must refuse to serve
         it: an unaudited full hit executes nothing, which is exactly the
         ride a poisoned profile would take. *)
      let id2 = get_ok "unaudited: resubmit" (Client.submit client spec) in
      let job2 = get_ok "unaudited: resubmit status" (Client.status client id2) in
      check "unaudited: full hit refused without --trust-cache"
        (job2.Job.cache <> Job.Cache_full);
      let final2 = get_ok "unaudited: resubmit watch" (Client.watch client id2) in
      check "unaudited: refused hit re-executed to the same bytes"
        (final2.Job.status = Job.Completed
        && ckpt_bytes ~state_dir ~shard_size id2 golden
           = Some reference.Ground_truth.outcomes);
      (* The operator can opt in explicitly. *)
      let id3 =
        get_ok "unaudited: resubmit trusting"
          (Client.submit client { spec with Job.trust_cache = true })
      in
      let job3 = get_ok "unaudited: trusting status" (Client.status client id3) in
      check "unaudited: --trust-cache serves the full hit"
        (job3.Job.status = Job.Completed && job3.Job.cache = Job.Cache_full);
      check "unaudited: trusted hit bytes = oracle"
        (ckpt_bytes ~state_dir ~shard_size id3 golden
        = Some reference.Ground_truth.outcomes))

let audited_provenance_gate () =
  with_scenario ~tag:"audited" ~audit_rate:1.0 ~workers:[ ("beta", false) ]
    (fun ~state_dir ~fleet:_ ~server:t ~client ->
      let shard_size = 128 in
      let spec =
        { (Job.default_spec ~bench:"audit.jacobi") with Job.shard_size; fuel = Some fuel }
      in
      let golden = golden_jacobi () in
      let reference = Executor.ground_truth_model ~fuel spec.Job.model golden in
      let id1 = get_ok "audited: submit" (Client.submit client spec) in
      let final1 = get_ok "audited: watch" (Client.watch client id1) in
      check "audited: cold job completed" (final1.Job.status = Job.Completed);
      (match Server.store t with
      | Some store ->
          let s = Store.stats store in
          check "audited: store populated, nothing unaudited"
            (s.Store.entries > 0 && s.Store.unaudited = 0)
      | None -> check "audited: store populated, nothing unaudited" false);
      (* Audited fleet provenance is trusted: the full hit serves without
         any opt-in, byte-identically. *)
      let id2 = get_ok "audited: resubmit" (Client.submit client spec) in
      let job2 = get_ok "audited: resubmit status" (Client.status client id2) in
      check "audited: full hit served without --trust-cache"
        (job2.Job.status = Job.Completed && job2.Job.cache = Job.Cache_full);
      check "audited: hit bytes = oracle"
        (ckpt_bytes ~state_dir ~shard_size id2 golden
        = Some reference.Ground_truth.outcomes))

let poisoned_cache_purge () =
  with_scenario ~tag:"poisoned" ~audit_rate:1.0 ~quarantine_after:1
    ~workers:[ ("gamma", false); ("liar", true) ]
    (fun ~state_dir ~fleet ~server:t ~client ->
      let shard_size = 64 in
      let spec =
        { (Job.default_spec ~bench:"audit.jacobi") with Job.shard_size; fuel = Some fuel }
      in
      let golden = golden_jacobi () in
      let reference = Executor.ground_truth_model ~fuel spec.Job.model golden in
      let id = get_ok "poisoned: submit" (Client.submit client spec) in
      let final = get_ok "poisoned: watch" (Client.watch client id) in
      check "poisoned: job completed" (final.Job.status = Job.Completed);
      check "poisoned: bytes = oracle despite the liar"
        (ckpt_bytes ~state_dir ~shard_size id golden
        = Some reference.Ground_truth.outcomes);
      check "poisoned: liar quarantined" ((Fleet.stats fleet).Fleet.quarantined = 1);
      (* The conviction must leave the cache clean: the liar's commits
         were all overwritten by the oracle, so the harvested profile
         carries only honest provenance and nothing in the store names
         the liar. *)
      (match Server.store t with
      | Some store ->
          let s = Store.stats store in
          check "poisoned: harvested profile is trusted"
            (s.Store.entries > 0 && s.Store.unaudited = 0);
          check "poisoned: no cached profile names the liar"
            (Store.invalidate_worker store ~worker:"liar" = 0)
      | None -> check "poisoned: store open" false);
      let id2 = get_ok "poisoned: resubmit" (Client.submit client spec) in
      let job2 = get_ok "poisoned: resubmit status" (Client.status client id2) in
      check "poisoned: clean profile serves a full hit"
        (job2.Job.status = Job.Completed && job2.Job.cache = Job.Cache_full))

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Printf.printf "audit smoke: drill=%d sites, jacobi=%d sites (lease ttl %.2fs)\n%!"
    (Golden.sites (Golden.run drill_program))
    (Golden.sites (golden_jacobi ()))
    lease_ttl;
  lying_worker_drill ();
  unaudited_provenance_gate ();
  audited_provenance_gate ();
  poisoned_cache_purge ();
  if !failures > 0 then begin
    Printf.printf "%d smoke check(s) failed\n" !failures;
    exit 1
  end;
  print_endline "audit smoke passed"
