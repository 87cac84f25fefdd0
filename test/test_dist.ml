module P = Ftb_dist.Worker_proto
module Lease = Ftb_dist.Lease
module Fleet = Ftb_dist.Fleet
module Rng = Ftb_util.Rng
module Json = Ftb_service.Json
module Engine = Ftb_campaign.Engine
module Golden = Ftb_trace.Golden

(* ------------------------------------------------------------------ *)
(* Worker protocol frames. *)

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex codec round-trips arbitrary bytes" ~count:300
    QCheck.(string_of Gen.char)
    (fun s ->
      let b = Bytes.of_string s in
      Bytes.equal b (P.bytes_of_hex (P.hex_of_bytes b)))

let test_hex_rejects () =
  Alcotest.check_raises "odd length" (P.Decode_error "hex blob has odd length")
    (fun () -> ignore (P.bytes_of_hex "abc"));
  (match P.bytes_of_hex "zz" with
  | _ -> Alcotest.fail "bad hex digit accepted"
  | exception P.Decode_error _ -> ())

let test_grant_roundtrip () =
  let g =
    {
      P.job_id = 7;
      bench = "ir.dot";
      fuel = Some 4096;
      model = Ftb_inject.Models.default_spec;
      fingerprint = "deadbeef";
      lease_id = 42;
      shard = 3;
      lo = 12288;
      hi = 16384;
      ttl = 2.5;
      cases = None;
    }
  in
  (match P.parse_lease_reply (P.grant_frame g) with
  | P.Granted g' -> Alcotest.(check bool) "grant round-trips" true (g = g')
  | P.Wait _ -> Alcotest.fail "grant parsed as wait");
  (match P.parse_lease_reply (P.wait_frame ~poll:0.25) with
  | P.Wait poll -> Alcotest.(check (float 1e-9)) "poll" 0.25 poll
  | P.Granted _ -> Alcotest.fail "wait parsed as grant");
  (let sparse = { g with P.lo = 0; hi = 4; cases = Some [| 9; 131; 7; 4096 |] } in
   match P.parse_lease_reply (P.grant_frame sparse) with
   | P.Granted g' -> Alcotest.(check bool) "sparse grant round-trips" true (sparse = g')
   | P.Wait _ -> Alcotest.fail "sparse grant parsed as wait");
  let no_fuel = { g with P.fuel = None } in
  match P.parse_lease_reply (P.grant_frame no_fuel) with
  | P.Granted g' -> Alcotest.(check bool) "fuel-less grant" true (no_fuel = g')
  | P.Wait _ -> Alcotest.fail "grant parsed as wait"

let test_small_frames_roundtrip () =
  let r = P.parse_registered (P.registered ~worker:9 ~ttl:1.5) in
  Alcotest.(check int) "worker id" 9 r.P.worker;
  Alcotest.(check (float 1e-9)) "ttl" 1.5 r.P.ttl;
  Alcotest.(check bool) "valid heartbeat" true
    (P.parse_heartbeat_reply (P.heartbeat_reply ~valid:true));
  let ack = P.parse_result_ack (P.result_ack_frame ~committed:false ~stale:true) in
  Alcotest.(check bool) "stale ack" true (ack.P.stale && not ack.P.committed);
  match P.check_ok (P.error_frame "oversized_result" "too big") with
  | () -> Alcotest.fail "error frame accepted as ok"
  | exception P.Decode_error msg ->
      Alcotest.(check bool) "typed code surfaces" true
        (String.length msg >= 16 && String.sub msg 0 16 = "oversized_result")

let test_result_fits () =
  Alcotest.(check bool) "max fits" true (P.result_fits ~cases:P.max_result_cases);
  Alcotest.(check bool) "max+1 does not" false
    (P.result_fits ~cases:(P.max_result_cases + 1));
  (* The guarantee behind the bound: a maximal blob's encoded frame stays
     under the wire limit. *)
  Alcotest.(check bool) "hex of max fits the wire" true
    (2 * P.max_result_cases + P.frame_slack <= Ftb_service.Wire.max_frame)

(* ------------------------------------------------------------------ *)
(* Lease table: the no-double-commit property under random worker death. *)

let test_lease_lifecycle () =
  let t = Lease.create ~first_lease:100 [| (0, 0, 10); (1, 10, 20) |] in
  Alcotest.(check int) "outstanding" 2 (Lease.outstanding t);
  let g =
    match Lease.acquire t ~holder:1 ~now:0. ~ttl:1. with
    | Some g -> g
    | None -> Alcotest.fail "no grant"
  in
  Alcotest.(check int) "lease ids thread from first_lease" 100 g.Lease.lease_id;
  Alcotest.(check bool) "renew live lease" true
    (Lease.renew t ~lease_id:g.Lease.lease_id ~now:0.5 ~ttl:1.);
  (* Renewed to 1.5: not expired at 1.2, expired at 2.0. *)
  Alcotest.(check int) "no premature expiry" 0 (Lease.expire t ~now:1.2);
  Alcotest.(check int) "expiry reclaims" 1 (Lease.expire t ~now:2.0);
  Alcotest.(check bool) "stale renew refused" false
    (Lease.renew t ~lease_id:g.Lease.lease_id ~now:2.0 ~ttl:1.);
  (* The dead worker's result still lands (first result wins)... *)
  Alcotest.(check bool) "late result commits" true
    (Lease.commit t ~shard:g.Lease.shard = `Committed);
  (* ...but only once, ever. *)
  Alcotest.(check bool) "second commit is stale" true
    (Lease.commit t ~shard:g.Lease.shard = `Stale);
  Alcotest.(check bool) "unknown shard" true (Lease.commit t ~shard:99 = `Unknown);
  Alcotest.(check int) "one left" 1 (Lease.outstanding t)

let prop_no_double_commit =
  QCheck.Test.make
    ~name:"lease scheduler: every shard commits exactly once under random death"
    ~count:300
    QCheck.(pair (int_range 1 24) (int_range 0 100000))
    (fun (nshards, seed) ->
      let rng = Rng.create ~seed in
      let tasks = Array.init nshards (fun i -> (i, i * 64, (i + 1) * 64)) in
      let t = Lease.create ~first_lease:(1 + Rng.int rng 1000) tasks in
      let commits = Array.make nshards 0 in
      let clock = ref 0. in
      (* Grants held by simulated workers; a "dead" worker's grants stay
         in this list and may produce late commits after re-lease. *)
      let grants = ref [] in
      let record_commit shard = commits.(shard) <- commits.(shard) + 1 in
      let random_grant () =
        match !grants with
        | [] -> None
        | l -> Some (List.nth l (Rng.int rng (List.length l)))
      in
      let steps = ref 0 in
      while Lease.outstanding t > 0 && !steps < 5_000 do
        incr steps;
        match Rng.int rng 10 with
        | 0 | 1 | 2 -> (
            (* A worker leases a shard. *)
            let holder = 1 + Rng.int rng 4 in
            match Lease.acquire t ~holder ~now:!clock ~ttl:1. with
            | Some g -> grants := g :: !grants
            | None -> ())
        | 3 ->
            (* Time passes; silent (SIGKILLed) workers lose their leases. *)
            clock := !clock +. (2. *. Rng.float rng 1.);
            ignore (Lease.expire t ~now:!clock : int)
        | 4 -> (
            (* A live worker heartbeats. *)
            match random_grant () with
            | Some g ->
                ignore (Lease.renew t ~lease_id:g.Lease.lease_id ~now:!clock ~ttl:1. : bool)
            | None -> ())
        | 5 | 6 | 7 -> (
            (* A result frame arrives — possibly from a worker whose lease
               expired long ago (late/duplicate delivery). *)
            match random_grant () with
            | Some g ->
                (match Lease.commit t ~shard:g.Lease.shard with
                | `Committed -> record_commit g.Lease.shard
                | `Stale | `Unknown -> ())
            | None -> ())
        | 8 -> (
            (* A worker reports a typed failure. Engine-level retry would
               re-queue the shard in a later wave; within this wave the
               failure resolves the slot, so it counts as its commit. *)
            match random_grant () with
            | Some g -> (
                match Lease.fail t ~lease_id:g.Lease.lease_id ~message:"injected" with
                | `Committed -> record_commit g.Lease.shard
                | `Stale -> ())
            | None -> ())
        | _ ->
            (* A worker detaches cleanly. *)
            ignore (Lease.release_holder t ~holder:(1 + Rng.int rng 4) : int)
      done;
      (* Drain: the executor of last resort finishes whatever remains. *)
      while Lease.outstanding t > 0 do
        match Lease.acquire t ~holder:0 ~now:!clock ~ttl:infinity with
        | Some g -> (
            match Lease.commit t ~shard:g.Lease.shard with
            | `Committed -> record_commit g.Lease.shard
            | `Stale | `Unknown -> ())
        | None ->
            (* Everything pending is leased out to ghosts; expire them. *)
            clock := !clock +. 10.;
            ignore (Lease.expire t ~now:!clock : int)
      done;
      Array.for_all (fun c -> c = 1) commits
      && List.length (Lease.results t) = nshards
      && List.for_all
           (fun (_, r) -> match r with Ok () -> true | Error m -> m = "injected")
           (Lease.results t))

(* ------------------------------------------------------------------ *)
(* Fleet scheduler: a result frame only commits into its own job's wave. *)

let test_cross_job_result_rejected () =
  (* Audit disabled: this test commits a hand-crafted byte pattern (not
     the bench's true outcomes) to observe the commit plumbing, which the
     audit oracle would rightly dispute. *)
  let fleet = Fleet.create ~lease_ttl:5.0 ~poll:0.005 ~audit_rate:0. () in
  let ext cmd json =
    match Fleet.extension fleet ~cmd json with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "no handler for %s" cmd)
  in
  let reg = P.parse_registered (ext "worker_register" (P.register ~domains:1 ())) in
  let wid = reg.P.worker in
  let golden = Golden.run (Helpers.linear_program ()) in
  let job_id = 41 in
  let runner =
    match
      Fleet.wave_runner fleet ~job_id ~bench:"helpers.linear" ~fuel:None
        ~model:Ftb_inject.Models.default_spec ~golden
    with
    | Some r -> r
    | None -> Alcotest.fail "no wave runner despite a registered worker"
  in
  let committed = ref [] in
  let commit ~shard bytes = committed := (shard, Bytes.copy bytes) :: !committed in
  let results = ref [] in
  let ran_locally = ref false in
  let wave =
    Thread.create
      (fun () ->
        results :=
          runner.Engine.run_wave
            [| { Engine.shard = 0; attempt = 1; lo = 0; hi = 4 } |]
            ~commit
            ~run_local:(fun ~lo:_ ~hi:_ -> ran_locally := true))
      ()
  in
  let rec lease_grant attempts =
    if attempts = 0 then Alcotest.fail "scheduler never offered a grant"
    else
      match P.parse_lease_reply (ext "worker_lease" (P.lease ~worker:wid)) with
      | P.Granted g -> g
      | P.Wait poll ->
          ignore (Unix.select [] [] [] (Float.max poll 0.001));
          lease_grant (attempts - 1)
  in
  let g = lease_grant 1000 in
  Alcotest.(check int) "grant advertises the active job" job_id g.P.job_id;
  let payload ~job =
    let data = Bytes.of_string "\x00\x01\x02\x03" in
    P.Blob
      {
        data;
        digest =
          P.outcome_digest ~job ~shard:g.P.shard ~lo:g.P.lo ~hi:g.P.hi
            ~fingerprint:g.P.fingerprint data;
      }
  in
  (* A straggler from an earlier job whose shard index happens to exist in
     this wave: dropped as stale, never committed. *)
  let stale_ack =
    P.parse_result_ack
      (ext "worker_result"
         (P.result ~worker:wid ~job:(job_id - 1) ~lease:g.P.lease_id
            ~shard:g.P.shard (payload ~job:(job_id - 1))))
  in
  Alcotest.(check bool) "cross-job result dropped as stale" true
    (stale_ack.P.stale && not stale_ack.P.committed);
  Alcotest.(check bool) "cross-job result committed nothing" true (!committed = []);
  (* A result frame that does not say which job it belongs to is refused
     outright with a typed error. *)
  let jobless =
    Json.Obj
      [
        ("cmd", Json.String "worker_result");
        ("worker", Json.Int wid);
        ("lease", Json.Int g.P.lease_id);
        ("shard", Json.Int g.P.shard);
        ("data", Json.String "00010203");
        ("digest", Json.String "0000000000000000");
      ]
  in
  (match P.check_ok (ext "worker_result" jobless) with
  | () -> Alcotest.fail "job-less result frame accepted"
  | exception P.Decode_error _ -> ());
  let ack =
    P.parse_result_ack
      (ext "worker_result"
         (P.result ~worker:wid ~job:job_id ~lease:g.P.lease_id ~shard:g.P.shard
            (payload ~job:job_id)))
  in
  Alcotest.(check bool) "same-job result commits" true
    (ack.P.committed && not ack.P.stale);
  Thread.join wave;
  Alcotest.(check bool) "shard never fell back to the local executor" false
    (!ran_locally || (Fleet.stats fleet).Fleet.local_committed > 0);
  (match !results with
  | [ (0, Ok ()) ] -> ()
  | _ -> Alcotest.fail "wave did not resolve the shard");
  (match !committed with
  | [ (0, b) ] ->
      Alcotest.(check string) "committed exactly the worker's bytes"
        "\x00\x01\x02\x03" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected exactly one committed shard");
  let s = Fleet.stats fleet in
  Alcotest.(check int) "one remote commit" 1 s.Fleet.remote_committed;
  Alcotest.(check bool) "cross-job frame counted as stale" true (s.Fleet.stale >= 1)

(* ------------------------------------------------------------------ *)
(* Trust-but-verify: attestation, audit adjudication, quarantine.       *)

let test_digest_and_admin_frames () =
  let b = Bytes.of_string "\x00\x01\x02\x03" in
  let d ~job ~shard ~lo ~hi ~fingerprint bytes =
    P.outcome_digest ~job ~shard ~lo ~hi ~fingerprint bytes
  in
  let base = d ~job:1 ~shard:0 ~lo:0 ~hi:4 ~fingerprint:"fp" b in
  Alcotest.(check string) "digest is deterministic" base
    (d ~job:1 ~shard:0 ~lo:0 ~hi:4 ~fingerprint:"fp" b);
  Alcotest.(check bool) "digest binds the bytes" false
    (base = d ~job:1 ~shard:0 ~lo:0 ~hi:4 ~fingerprint:"fp" (Bytes.of_string "\x00\x01\x02\x04"));
  Alcotest.(check bool) "digest binds the shard coordinates" false
    (base = d ~job:1 ~shard:1 ~lo:0 ~hi:4 ~fingerprint:"fp" b);
  Alcotest.(check bool) "digest binds the golden fingerprint" false
    (base = d ~job:1 ~shard:0 ~lo:0 ~hi:4 ~fingerprint:"fq" b);
  let rows =
    [
      {
        P.row_wid = 1;
        row_name = "alpha";
        row_domains = 2;
        row_age = 0.25;
        row_committed = 7;
        row_failed = 1;
        row_disputed = 0;
        row_quarantined = false;
      };
      {
        P.row_wid = 2;
        row_name = "liar";
        row_domains = 1;
        row_age = 3.5;
        row_committed = 4;
        row_failed = 0;
        row_disputed = 2;
        row_quarantined = true;
      };
    ]
  in
  let rows', barred' =
    P.parse_workers (P.workers_frame rows ~barred:[ ("liar", 2) ])
  in
  Alcotest.(check int) "rows round-trip" 2 (List.length rows');
  Alcotest.(check bool) "row fields round-trip" true (List.nth rows' 1 = List.nth rows 1);
  Alcotest.(check bool) "barred round-trips" true (barred' = [ ("liar", 2) ]);
  Alcotest.(check bool) "cleared frame round-trips" true
    (P.parse_cleared (P.cleared_frame ~cleared:true)
    && not (P.parse_cleared (P.cleared_frame ~cleared:false)))

(* Shared scaffolding: drive one wave of [job_id] through a fleet with a
   single registered worker, returning what the test needs to poke at. *)
let drive_wave fleet ~job_id ~wid ~golden ~tasks ~on_grant =
  let ext cmd json =
    match Fleet.extension fleet ~cmd json with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "no handler for %s" cmd)
  in
  let runner =
    match
      Fleet.wave_runner fleet ~job_id ~bench:"helpers.linear" ~fuel:None
        ~model:Ftb_inject.Models.default_spec ~golden
    with
    | Some r -> r
    | None -> Alcotest.fail "no wave runner despite a registered worker"
  in
  let committed : (int, Bytes.t) Hashtbl.t = Hashtbl.create 4 in
  let commit ~shard bytes = Hashtbl.replace committed shard (Bytes.copy bytes) in
  let ran_locally = ref 0 in
  let results = ref [] in
  let wave =
    Thread.create
      (fun () ->
        results :=
          runner.Engine.run_wave tasks ~commit
            ~run_local:(fun ~lo:_ ~hi:_ -> incr ran_locally))
      ()
  in
  let rec lease_grant attempts =
    if attempts = 0 then Alcotest.fail "scheduler never offered a grant"
    else
      match P.parse_lease_reply (ext "worker_lease" (P.lease ~worker:wid)) with
      | P.Granted g -> g
      | P.Wait poll ->
          ignore (Unix.select [] [] [] (Float.max poll 0.001));
          lease_grant (attempts - 1)
  in
  on_grant ~ext ~lease_grant;
  Thread.join wave;
  (!results, committed, !ran_locally)

let test_digest_mismatch_rejected () =
  let fleet = Fleet.create ~lease_ttl:5.0 ~poll:0.005 ~audit_rate:0. () in
  let ext cmd json =
    match Fleet.extension fleet ~cmd json with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "no handler for %s" cmd)
  in
  let reg = P.parse_registered (ext "worker_register" (P.register ~domains:1 ())) in
  let wid = reg.P.worker in
  let golden = Golden.run (Helpers.linear_program ()) in
  let job_id = 51 in
  let results, committed, _local =
    drive_wave fleet ~job_id ~wid ~golden
      ~tasks:[| { Engine.shard = 0; attempt = 1; lo = 0; hi = 4 } |]
      ~on_grant:(fun ~ext ~lease_grant ->
        let g = lease_grant 1000 in
        (* The attestation layer guards the transport: bytes whose frame
           digest disagrees with the server's recomputation never commit,
           whatever they contain. *)
        let frame =
          P.result ~worker:wid ~job:job_id ~lease:g.P.lease_id ~shard:g.P.shard
            (P.Blob
               { data = Bytes.of_string "\x00\x01\x02\x03"; digest = "0000000000000000" })
        in
        match P.check_ok (ext "worker_result" frame) with
        | () -> Alcotest.fail "corrupt-digest result accepted"
        | exception P.Decode_error msg ->
            Alcotest.(check bool) "typed digest_mismatch" true
              (String.length msg >= 15 && String.sub msg 0 15 = "digest_mismatch"))
  in
  (* The rejection released the lease as a typed failure, so the wave
     resolves the shard through the engine's retry path, not a commit. *)
  (match results with
  | [ (0, Error _) ] -> ()
  | _ -> Alcotest.fail "digest-mismatched shard should resolve as a failure");
  Alcotest.(check int) "nothing committed" 0 (Hashtbl.length committed);
  let s = Fleet.stats fleet in
  Alcotest.(check int) "bad_digest counted" 1 s.Fleet.bad_digest;
  Alcotest.(check int) "no remote commit" 0 s.Fleet.remote_committed;
  Alcotest.(check int) "a frame rejection is not a dispute" 0 s.Fleet.disputed

let test_audit_dispute_quarantine_clear () =
  let fleet =
    Fleet.create ~lease_ttl:5.0 ~poll:0.005 ~audit_rate:1.0 ~quarantine_after:1 ()
  in
  let events = ref [] in
  Fleet.set_on_quarantine fleet (fun ~name ~disputes ->
      events := (name, disputes) :: !events);
  let ext cmd json =
    match Fleet.extension fleet ~cmd json with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "no handler for %s" cmd)
  in
  let reg =
    P.parse_registered (ext "worker_register" (P.register ~name:"liar" ~domains:1 ()))
  in
  let wid = reg.P.worker in
  let golden = Golden.run (Helpers.linear_program ()) in
  let job_id = 52 in
  let truth =
    (Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden)
      .Ftb_inject.Ground_truth.outcomes
  in
  let true_slice = Bytes.sub truth 0 4 in
  (* SDC upstream of the hash: the worker computes wrong bytes and
     honestly digests them, so the frame passes attestation and only the
     audit oracle can catch it. *)
  let lie = Bytes.map (fun c -> if c = '\x05' then '\x04' else '\x05') true_slice in
  let results, committed, _local =
    drive_wave fleet ~job_id ~wid ~golden
      ~tasks:[| { Engine.shard = 0; attempt = 1; lo = 0; hi = 4 } |]
      ~on_grant:(fun ~ext ~lease_grant ->
        let g = lease_grant 1000 in
        let digest =
          P.outcome_digest ~job:job_id ~shard:g.P.shard ~lo:g.P.lo ~hi:g.P.hi
            ~fingerprint:g.P.fingerprint lie
        in
        let ack =
          P.parse_result_ack
            (ext "worker_result"
               (P.result ~worker:wid ~job:job_id ~lease:g.P.lease_id
                  ~shard:g.P.shard (P.Blob { data = lie; digest })))
        in
        Alcotest.(check bool) "lying result commits at the frame layer" true
          (ack.P.committed && not ack.P.stale))
  in
  (match results with
  | [ (0, Ok ()) ] -> ()
  | _ -> Alcotest.fail "wave did not resolve the shard");
  (* Adjudication: the oracle's bytes replaced the lie before run_wave
     returned — the engine can only ever checkpoint adjudicated bytes. *)
  (match Hashtbl.find_opt committed 0 with
  | Some b -> Alcotest.(check string) "oracle overwrote the lying bytes"
      (Bytes.to_string true_slice) (Bytes.to_string b)
  | None -> Alcotest.fail "shard never committed");
  let s = Fleet.stats fleet in
  Alcotest.(check int) "audited" 1 s.Fleet.audited;
  Alcotest.(check int) "disputed" 1 s.Fleet.disputed;
  Alcotest.(check int) "quarantined" 1 s.Fleet.quarantined;
  Alcotest.(check bool) "hook fired with the liar's name" true
    (!events = [ ("liar", 1) ]);
  Alcotest.(check int) "quarantine removed the worker from the live set" 0
    (Fleet.live_workers fleet);
  (* The quarantined worker is refused everywhere: lease polls, results,
     and re-registration under the barred name. The worker process may
     long be dead by now — adjudication and quarantine never needed it. *)
  (match P.check_ok (ext "worker_lease" (P.lease ~worker:wid)) with
  | () -> Alcotest.fail "quarantined worker still granted leases"
  | exception P.Decode_error msg ->
      Alcotest.(check bool) "lease refused as quarantined" true
        (String.length msg >= 11 && String.sub msg 0 11 = "quarantined"));
  (match P.check_ok (ext "worker_register" (P.register ~name:"liar" ~domains:1 ())) with
  | () -> Alcotest.fail "barred name re-registered"
  | exception P.Decode_error msg ->
      Alcotest.(check bool) "re-registration refused" true
        (String.length msg >= 11 && String.sub msg 0 11 = "quarantined"));
  (* The trust ledger surfaces the conviction. The registry row itself is
     pruned on the same bounded-list path as detached workers — only the
     barred (name, disputes) record endures, and it alone enforces. *)
  let rows, barred = P.parse_workers (ext "worker_stats" P.workers_request) in
  Alcotest.(check bool) "quarantined row pruned from the registry" true
    (List.for_all (fun r -> r.P.row_name <> "liar") rows);
  Alcotest.(check bool) "barred list names the liar" true (barred = [ ("liar", 1) ]);
  (* ...and the operator can lift it: clearing unbars the name, and a
     fresh registration under it starts with a clean slate. *)
  Alcotest.(check bool) "clear acknowledges" true
    (P.parse_cleared (ext "worker_clear" (P.workers_clear_request ~name:"liar")));
  Alcotest.(check bool) "second clear is a no-op" false
    (P.parse_cleared (ext "worker_clear" (P.workers_clear_request ~name:"liar")));
  let reg2 =
    P.parse_registered (ext "worker_register" (P.register ~name:"liar" ~domains:1 ()))
  in
  Alcotest.(check bool) "cleared name registers under a fresh wid" true
    (reg2.P.worker <> wid);
  Alcotest.(check int) "cleared worker is live" 1 (Fleet.live_workers fleet)

let test_local_executor_never_self_quarantined () =
  let fleet =
    Fleet.create ~lease_ttl:5.0 ~poll:0.005 ~audit_rate:1.0 ~quarantine_after:1 ()
  in
  let ext cmd json =
    match Fleet.extension fleet ~cmd json with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "no handler for %s" cmd)
  in
  let reg = P.parse_registered (ext "worker_register" (P.register ~domains:1 ())) in
  let wid = reg.P.worker in
  let golden = Golden.run (Helpers.linear_program ()) in
  (* The worker detaches before taking a lease, so the executor of last
     resort (holder wid 0) runs the whole wave. Local commits create no
     audit records: even at audit-rate 1.0 there is nothing to audit, and
     the server can never dispute — let alone quarantine — itself. *)
  let results, committed, ran_locally =
    drive_wave fleet ~job_id:53 ~wid ~golden
      ~tasks:[| { Engine.shard = 0; attempt = 1; lo = 0; hi = 4 } |]
      ~on_grant:(fun ~ext ~lease_grant:_ ->
        ignore (ext "worker_detach" (P.detach ~worker:wid) : Json.t))
  in
  (match results with
  | [ (0, Ok ()) ] -> ()
  | _ -> Alcotest.fail "local fallback did not resolve the shard");
  (* The local executor hands its blob to the engine's [commit], like a
     remote one: the oracle's bytes, never the engine's [run_local]. *)
  let truth =
    (Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden)
      .Ftb_inject.Ground_truth.outcomes
  in
  Alcotest.(check (option string)) "shard ran locally"
    (Some (Bytes.sub_string truth 0 4))
    (Option.map Bytes.to_string (Hashtbl.find_opt committed 0));
  Alcotest.(check int) "through Shard.run, not the engine's run_local" 0 ran_locally;
  let s = Fleet.stats fleet in
  Alcotest.(check int) "one local commit" 1 s.Fleet.local_committed;
  Alcotest.(check int) "local commits are never audited" 0 s.Fleet.audited;
  Alcotest.(check int) "no disputes" 0 s.Fleet.disputed;
  Alcotest.(check int) "server never self-quarantines" 0 s.Fleet.quarantined

(* ------------------------------------------------------------------ *)
(* One shard path: the blob check, and frame shapes nothing writes.     *)

(* A samples blob whose first masked sample also claims a deviation at
   site [sites], one past the program's last dynamic instruction: it
   decodes (sites ascend, the deviation is positive), and folding it
   would index outside the boundary. *)
let propagating_past ~sites blob =
  let samples = Ftb_inject.Sample_codec.decode (Bytes.to_string blob) in
  let lied = ref false in
  let samples =
    Array.map
      (fun (s : Ftb_inject.Sample_run.t) ->
        match s.propagation with
        | Some (p, d) when not !lied ->
            lied := true;
            { s with propagation = Some (Array.append p [| sites |], Array.append d [| 1.0 |]) }
        | Some _ | None -> s)
      samples
  in
  if not !lied then Alcotest.fail "no masked sample to lie about";
  Bytes.of_string (Ftb_inject.Sample_codec.encode samples)

let test_shard_check () =
  let model = Ftb_inject.Models.default_spec in
  let golden = Golden.run (Helpers.linear_program ()) in
  let range = Ftb_dist.Shard.Range { lo = 64; hi = 80 } in
  let blob = Ftb_dist.Shard.run model golden range in
  let sites = Golden.sites golden in
  let ok what shard blob =
    Alcotest.(check bool) what true (Ftb_dist.Shard.check model ~sites shard blob = Ok ())
  in
  let refused what shard blob =
    Alcotest.(check bool) what true
      (Result.is_error (Ftb_dist.Shard.check model ~sites shard blob))
  in
  ok "a computed range passes" range blob;
  refused "short range blob" range (Bytes.sub blob 0 15);
  refused "long range blob" range (Bytes.cat blob (Bytes.make 1 '\000'));
  let bad = Bytes.copy blob in
  Bytes.set bad 3 '\007';
  refused "outcome byte outside 0..5" range bad;
  let cases = [| 3; 70; 129; 447 |] in
  let drawn = Ftb_dist.Shard.Cases cases in
  let samples = Ftb_dist.Shard.run model golden drawn in
  ok "computed samples pass" drawn samples;
  refused "samples of other cases" (Ftb_dist.Shard.Cases [| 3; 70; 129; 446 |]) samples;
  refused "too few samples" (Ftb_dist.Shard.Cases (Array.append cases [| 5 |])) samples;
  refused "not a codec blob" drawn (Bytes.of_string "garbage");
  refused "a propagation site past the program" drawn (propagating_past ~sites samples);
  Alcotest.(check bool) "of_wave slices the drawn round" true
    (Ftb_dist.Shard.of_wave (Some [| 9; 8; 7; 6 |]) ~lo:1 ~hi:3 = Ftb_dist.Shard.Cases [| 8; 7 |])

let test_grant_without_model () =
  let frame =
    P.grant_frame
      {
        P.job_id = 7;
        bench = "ir.dot";
        fuel = None;
        model = Ftb_inject.Models.default_spec;
        fingerprint = "deadbeef";
        lease_id = 42;
        shard = 3;
        lo = 0;
        hi = 4;
        ttl = 2.5;
        cases = None;
      }
  in
  let strip = function
    | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "model") fields)
    | j -> j
  in
  let model_less =
    match frame with
    | Json.Obj fields ->
        Json.Obj (List.map (fun (k, v) -> if k = "grant" then (k, strip v) else (k, v)) fields)
    | j -> j
  in
  match P.parse_lease_reply model_less with
  | _ -> Alcotest.fail "grant without a model accepted"
  | exception P.Decode_error _ -> ()

let test_digestless_result_rerun () =
  let fleet = Fleet.create ~lease_ttl:5.0 ~poll:0.005 ~audit_rate:0. () in
  let ext cmd json =
    match Fleet.extension fleet ~cmd json with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "no handler for %s" cmd)
  in
  let wid = (P.parse_registered (ext "worker_register" (P.register ~domains:1 ()))).P.worker in
  let golden = Golden.run (Helpers.linear_program ()) in
  let job_id = 54 in
  let truth =
    (Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden)
      .Ftb_inject.Ground_truth.outcomes
  in
  let data = Bytes.sub truth 0 4 in
  let wave attempt frame =
    drive_wave fleet ~job_id ~wid ~golden
      ~tasks:[| { Engine.shard = 0; attempt; lo = 0; hi = 4 } |]
      ~on_grant:(fun ~ext ~lease_grant -> frame ~ext (lease_grant 1000))
  in
  (* First attempt: the worker's blob arrives without its digest — a frame
     shape nothing writes. It is refused typed, and its lease fails. *)
  let results, committed, _ =
    wave 1 (fun ~ext g ->
        let frame =
          Json.Obj
            [
              ("cmd", Json.String "worker_result");
              ("worker", Json.Int wid);
              ("job", Json.Int job_id);
              ("lease", Json.Int g.P.lease_id);
              ("shard", Json.Int g.P.shard);
              ("data", Json.String (P.hex_of_bytes data));
            ]
        in
        match P.check_ok (ext "worker_result" frame) with
        | () -> Alcotest.fail "digest-less result accepted"
        | exception P.Decode_error msg ->
            Alcotest.(check bool) "typed bad_result" true
              (String.length msg >= 10 && String.sub msg 0 10 = "bad_result"))
  in
  (match results with
  | [ (0, Error _) ] -> ()
  | _ -> Alcotest.fail "a refused shard should resolve as a failure, for the engine to retry");
  Alcotest.(check int) "nothing committed" 0 (Hashtbl.length committed);
  (* The engine's retry re-runs the shard; an attested blob commits. *)
  let results, committed, _ =
    wave 2 (fun ~ext g ->
        let digest =
          P.outcome_digest ~job:job_id ~shard:g.P.shard ~lo:g.P.lo ~hi:g.P.hi
            ~fingerprint:g.P.fingerprint data
        in
        let ack =
          P.parse_result_ack
            (ext "worker_result"
               (P.result ~worker:wid ~job:job_id ~lease:g.P.lease_id ~shard:g.P.shard
                  (P.Blob { data; digest })))
        in
        Alcotest.(check bool) "re-run shard commits" true ack.P.committed)
  in
  (match results with
  | [ (0, Ok ()) ] -> ()
  | _ -> Alcotest.fail "the re-run shard did not resolve");
  Alcotest.(check (option string)) "re-run committed the attested bytes"
    (Some (Bytes.to_string data))
    (Option.map Bytes.to_string (Hashtbl.find_opt committed 0))

(* A fleet served in-process: each connection is a socketpair whose far
   end a thread answers through [Fleet.extension]. *)
let fleet_connector fleet () =
  let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let serve () =
    (try
       while true do
         let json = Ftb_service.Wire.read theirs in
         let cmd = Option.value ~default:"" (Option.bind (Json.member "cmd" json) Json.to_str) in
         Ftb_service.Wire.write theirs
           (match Fleet.extension fleet ~cmd json with
           | Some reply -> reply
           | None -> P.error_frame "bad_request" cmd)
       done
     with _ -> ());
    try Unix.close theirs with Unix.Unix_error _ -> ()
  in
  ignore (Thread.create serve () : Thread.t);
  mine

let test_invalid_dense_byte_rerun () =
  (* Audit off: the corrupt shard is one no audit picks, so only the blob
     check stands between its bytes and the campaign. *)
  let fleet = Fleet.create ~lease_ttl:5.0 ~poll:0.005 ~audit_rate:0. () in
  let program = Helpers.linear_program () in
  let golden = Golden.run program in
  let corrupted = ref false in
  (* One correctly digested blob carrying 0x07, which is no outcome. *)
  let tamper ~bench:_ ~shard b =
    if shard = 1 && not !corrupted then begin
      corrupted := true;
      Bytes.set b 0 '\007'
    end;
    b
  in
  let stop = Atomic.make false in
  let stats = ref None in
  let worker =
    Thread.create
      (fun () ->
        stats :=
          Some
            (Ftb_dist.Worker.run
               (Ftb_dist.Worker.config ~resolve:(fun _ -> program)
                  ~stop:(fun () -> Atomic.get stop)
                  ~tamper (fleet_connector fleet))))
      ()
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while Fleet.live_workers fleet < 1 do
    if Unix.gettimeofday () > deadline then Alcotest.fail "worker never registered";
    Thread.delay 0.002
  done;
  let config = { Engine.default_config with Engine.shard_size = 64 } in
  let fleet_run () =
    Engine.run
      ~config:
        {
          config with
          Engine.runner =
            Fleet.wave_runner fleet ~job_id:55 ~bench:"helpers.linear" ~fuel:None
              ~model:Ftb_inject.Models.default_spec ~golden;
        }
      golden
  in
  let report = Fun.protect ~finally:(fun () -> Atomic.set stop true) fleet_run in
  Thread.join worker;
  let direct = Engine.run ~config golden in
  Alcotest.(check bool) "the worker corrupted a blob" true !corrupted;
  Alcotest.(check string) "job bytes identical to the direct campaign"
    (Bytes.to_string direct.Engine.ground_truth.Ftb_inject.Ground_truth.outcomes)
    (Bytes.to_string report.Engine.ground_truth.Ftb_inject.Ground_truth.outcomes);
  Alcotest.(check int) "the refused shard was re-run" 1 report.Engine.retries;
  (match !stats with
  | Some s -> Alcotest.(check int) "the worker saw one refusal" 1 s.Ftb_dist.Worker.failures
  | None -> Alcotest.fail "worker returned no stats");
  let s = Fleet.stats fleet in
  Alcotest.(check int) "every shard committed remotely once" 7 s.Fleet.remote_committed;
  Alcotest.(check int) "a bad blob is not a digest failure" 0 s.Fleet.bad_digest

let test_liar_propagation_refused () =
  (* Audit off: only the blob check stands between a lying slice and the
     round's fold. *)
  let fleet = Fleet.create ~lease_ttl:5.0 ~poll:0.005 ~audit_rate:0. () in
  let program = Helpers.linear_program () in
  let golden = Golden.run program in
  let sites = Golden.sites golden in
  let lied = Atomic.make false in
  let tamper ~bench:_ ~shard:_ b =
    if Atomic.get lied then b
    else
      match propagating_past ~sites b with
      | lie ->
          Atomic.set lied true;
          lie
      | exception _ -> b
  in
  let stop = Atomic.make false in
  let stats = ref None in
  let worker =
    Thread.create
      (fun () ->
        stats :=
          Some
            (Ftb_dist.Worker.run
               (Ftb_dist.Worker.config ~resolve:(fun _ -> program)
                  ~stop:(fun () -> Atomic.get stop)
                  ~tamper (fleet_connector fleet))))
      ()
  in
  let deadline = Unix.gettimeofday () +. 30. in
  while Fleet.live_workers fleet < 1 do
    if Unix.gettimeofday () > deadline then Alcotest.fail "worker never registered";
    Thread.delay 0.002
  done;
  let config =
    { Ftb_core.Adaptive.default_config with Ftb_core.Adaptive.round_fraction = 0.05 }
  in
  let model = Ftb_inject.Models.default_spec in
  let exec =
    Fleet.round_runner fleet ~job_id:56 ~bench:"helpers.linear" ~fuel:None ~model ~golden
  in
  let result, _ =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () -> Ftb_plan.Adaptive_engine.run ~config ~exec ~name:"lin" ~seed:5 golden)
  in
  Thread.join worker;
  let oracle = Ftb_core.Adaptive.run_model ~config (Rng.create ~seed:5) golden in
  Alcotest.(check bool) "the worker lied about a propagation site" true (Atomic.get lied);
  let threshold (r : Ftb_core.Adaptive.result) i =
    Int64.bits_of_float (Ftb_core.Boundary.threshold r.boundary i)
  in
  Alcotest.(check int) "as many samples as the serial oracle"
    (Array.length oracle.samples) (Array.length result.samples);
  for i = 0 to sites - 1 do
    Alcotest.(check int64) (Printf.sprintf "threshold %d bytes" i) (threshold oracle i)
      (threshold result i)
  done;
  (match !stats with
  | Some s -> Alcotest.(check int) "the worker saw one refusal" 1 s.Ftb_dist.Worker.failures
  | None -> Alcotest.fail "worker returned no stats");
  Alcotest.(check int) "a bad blob is not a digest failure" 0 (Fleet.stats fleet).Fleet.bad_digest

let suite =
  [
    Helpers.qcheck_to_alcotest prop_hex_roundtrip;
    Alcotest.test_case "hex rejects garbage" `Quick test_hex_rejects;
    Alcotest.test_case "grant/wait frames round-trip" `Quick test_grant_roundtrip;
    Alcotest.test_case "small frames round-trip" `Quick test_small_frames_roundtrip;
    Alcotest.test_case "result size bound" `Quick test_result_fits;
    Alcotest.test_case "lease lifecycle" `Quick test_lease_lifecycle;
    Helpers.qcheck_to_alcotest prop_no_double_commit;
    Alcotest.test_case "cross-job results never commit" `Quick
      test_cross_job_result_rejected;
    Alcotest.test_case "digest + trust-ledger frames" `Quick
      test_digest_and_admin_frames;
    Alcotest.test_case "attestation rejects digest mismatches" `Quick
      test_digest_mismatch_rejected;
    Alcotest.test_case "audit disputes, quarantines and clears" `Quick
      test_audit_dispute_quarantine_clear;
    Alcotest.test_case "local executor is never self-quarantined" `Quick
      test_local_executor_never_self_quarantined;
    Alcotest.test_case "shard check refuses malformed blobs" `Quick test_shard_check;
    Alcotest.test_case "grant without a model is a decode error" `Quick
      test_grant_without_model;
    Alcotest.test_case "digest-less result is refused and re-run" `Quick
      test_digestless_result_rerun;
    Alcotest.test_case "invalid dense byte is refused and re-run" `Quick
      test_invalid_dense_byte_rerun;
    Alcotest.test_case "out-of-range propagation is refused and re-run" `Quick
      test_liar_propagation_refused;
  ]
