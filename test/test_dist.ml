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
    }
  in
  (match P.parse_lease_reply (P.grant_frame g) with
  | P.Granted g' -> Alcotest.(check bool) "grant round-trips" true (g = g')
  | P.Wait _ -> Alcotest.fail "grant parsed as wait");
  (match P.parse_lease_reply (P.wait_frame ~poll:0.25) with
  | P.Wait poll -> Alcotest.(check (float 1e-9)) "poll" 0.25 poll
  | P.Granted _ -> Alcotest.fail "wait parsed as grant");
  (* A daemon that still leases adaptive rounds sends a drawn case list
     whose [lo, hi) index the draw: never run it as a dense range. *)
  List.iter
    (fun cases ->
      let with_cases =
        match P.grant_frame g with
        | Json.Obj [ ok; ("grant", Json.Obj fields) ] ->
            Json.Obj [ ok; ("grant", Json.Obj (fields @ [ ("cases", cases) ])) ]
        | _ -> Alcotest.fail "unexpected grant frame shape"
      in
      match P.parse_lease_reply with_cases with
      | _ -> Alcotest.fail "a grant with a case list was accepted"
      | exception P.Decode_error _ -> ())
    [ Json.List [ Json.Int 9; Json.Int 131 ]; Json.List []; Json.Null ];
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
      (* Drain: the local holder finishes whatever remains. *)
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

let await_parked fleet n =
  let deadline = Unix.gettimeofday () +. 30. in
  while (Fleet.stats fleet).Fleet.parked < n do
    if Unix.gettimeofday () > deadline then Alcotest.fail "lease request never parked";
    Thread.delay 0.001
  done

(* Send a lease request from a thread and return once the fleet holds it
   parked. A wave opened after that hands the request a shard before the
   local holder claims one, so the worker's share of the wave is certain.
   [grant ()] joins the thread and returns that grant. *)
let park_lease fleet ext ~wid =
  let reply = ref None in
  let th =
    Thread.create
      (fun () -> reply := Some (P.parse_lease_reply (ext "worker_lease" (P.lease ~worker:wid))))
      ()
  in
  await_parked fleet 1;
  fun () ->
    Thread.join th;
    match !reply with
    | Some (P.Granted g) -> g
    | Some (P.Wait _) -> Alcotest.fail "a parked lease request was answered Wait when the wave opened"
    | None -> Alcotest.fail "the lease request failed"

let test_cross_job_result_rejected () =
  (* Audit disabled: this test commits a hand-crafted byte pattern (not
     the bench's true outcomes) to observe the commit plumbing, which the
     audit oracle would rightly dispute. *)
  let fleet = Fleet.create ~lease_ttl:5.0 ~audit_rate:0. () in
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
  let grant = park_lease fleet ext ~wid in
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
  let g = grant () in
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
   single registered worker whose lease request is parked before the wave
   opens, returning what the test needs to poke at. *)
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
  let grant = park_lease fleet ext ~wid in
  let wave =
    Thread.create
      (fun () ->
        results :=
          runner.Engine.run_wave tasks ~commit
            ~run_local:(fun ~lo:_ ~hi:_ -> incr ran_locally))
      ()
  in
  on_grant ~ext ~grant;
  Thread.join wave;
  (!results, committed, !ran_locally)

let test_digest_mismatch_rejected () =
  let fleet = Fleet.create ~lease_ttl:5.0 ~audit_rate:0. () in
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
      ~on_grant:(fun ~ext ~grant ->
        let g = grant () in
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
    Fleet.create ~lease_ttl:5.0 ~audit_rate:1.0 ~quarantine_after:1 ()
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
      ~on_grant:(fun ~ext ~grant ->
        let g = grant () in
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
    Fleet.create ~lease_ttl:5.0 ~audit_rate:1.0 ~quarantine_after:1 ()
  in
  let ext cmd json =
    match Fleet.extension fleet ~cmd json with
    | Some reply -> reply
    | None -> Alcotest.fail (Printf.sprintf "no handler for %s" cmd)
  in
  let reg = P.parse_registered (ext "worker_register" (P.register ~domains:1 ())) in
  let wid = reg.P.worker in
  let golden = Golden.run (Helpers.linear_program ()) in
  let runner =
    match
      Fleet.wave_runner fleet ~job_id:53 ~bench:"helpers.linear" ~fuel:None
        ~model:Ftb_inject.Models.default_spec ~golden
    with
    | Some r -> r
    | None -> Alcotest.fail "no wave runner despite a registered worker"
  in
  (* The worker detaches before taking a lease, so the local holder
     (holder wid 0) runs the whole wave. Local commits create no audit
     records: even at audit-rate 1.0 there is nothing to audit, and the
     server can never dispute — let alone quarantine — itself. *)
  ignore (ext "worker_detach" (P.detach ~worker:wid) : Json.t);
  let committed = ref 0 in
  let out = Bytes.make 4 '\255' in
  let results =
    runner.Engine.run_wave
      [| { Engine.shard = 0; attempt = 1; lo = 0; hi = 4 } |]
      ~commit:(fun ~shard:_ _ -> incr committed)
      ~run_local:(fun ~lo ~hi ->
        Bytes.blit (Ftb_dist.Shard.run Ftb_inject.Models.default_spec golden ~lo ~hi) 0 out lo (hi - lo))
  in
  (match results with
  | [ (0, Ok ()) ] -> ()
  | _ -> Alcotest.fail "the local holder did not resolve the shard");
  (* The local holder writes through the engine's [run_local], in place:
     no blob crosses [commit]. *)
  let truth =
    (Ftb_inject.Executor.ground_truth_model Ftb_inject.Models.default_spec golden)
      .Ftb_inject.Ground_truth.outcomes
  in
  Alcotest.(check string) "shard ran locally" (Bytes.sub_string truth 0 4) (Bytes.to_string out);
  Alcotest.(check int) "through the engine's run_local, not commit" 0 !committed;
  let s = Fleet.stats fleet in
  Alcotest.(check int) "one local commit" 1 s.Fleet.local_committed;
  Alcotest.(check int) "local commits are never audited" 0 s.Fleet.audited;
  Alcotest.(check int) "no disputes" 0 s.Fleet.disputed;
  Alcotest.(check int) "server never self-quarantines" 0 s.Fleet.quarantined

(* ------------------------------------------------------------------ *)
(* One shard path: the blob check, and frame shapes nothing writes.     *)

let test_shard_check () =
  let model = Ftb_inject.Models.default_spec in
  let golden = Golden.run (Helpers.linear_program ()) in
  let blob = Ftb_dist.Shard.run model golden ~lo:64 ~hi:80 in
  let check blob = Ftb_dist.Shard.check ~lo:64 ~hi:80 blob in
  let refused what blob = Alcotest.(check bool) what true (Result.is_error (check blob)) in
  Alcotest.(check bool) "a computed range passes" true (check blob = Ok ());
  refused "short range blob" (Bytes.sub blob 0 15);
  refused "long range blob" (Bytes.cat blob (Bytes.make 1 '\000'));
  let bad = Bytes.copy blob in
  Bytes.set bad 3 '\007';
  refused "outcome byte outside 0..5" bad

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
  let fleet = Fleet.create ~lease_ttl:5.0 ~audit_rate:0. () in
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
      ~on_grant:(fun ~ext ~grant -> frame ~ext (grant ()))
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
  let fleet = Fleet.create ~lease_ttl:5.0 ~audit_rate:0. () in
  let program = Helpers.linear_program () in
  let golden = Golden.run program in
  let corrupted = ref false in
  (* One correctly digested blob carrying 0x07, which is no outcome: the
     worker's first. *)
  let tamper ~bench:_ ~shard:_ b =
    if not !corrupted then begin
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
  (* Parked before the job starts, the worker is certain to get a shard of
     the first wave. *)
  await_parked fleet 1;
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
  Alcotest.(check int) "every shard committed once" 7
    (s.Fleet.remote_committed + s.Fleet.local_committed);
  Alcotest.(check int) "a bad blob is not a digest failure" 0 s.Fleet.bad_digest

(* ------------------------------------------------------------------ *)
(* The local holder, the long-poll lease and the audit quota.           *)

let one_shard_wave fleet ~job_id ~golden ~shard ~run_local =
  match
    Fleet.wave_runner fleet ~job_id ~bench:"helpers.linear" ~fuel:None
      ~model:Ftb_inject.Models.default_spec ~golden
  with
  | None -> Alcotest.fail "no wave runner despite a registered worker"
  | Some runner ->
      runner.Engine.run_wave
        [| { Engine.shard; attempt = 1; lo = 0; hi = 4 } |]
        ~commit:(fun ~shard:_ _ -> ())
        ~run_local

let test_silent_worker_no_stall () =
  let fleet = Fleet.create ~lease_ttl:5.0 ~audit_rate:0. () in
  let ext cmd json = Option.get (Fleet.extension fleet ~cmd json) in
  (* Registered and live, but it never asks for a lease. *)
  ignore (P.parse_registered (ext "worker_register" (P.register ~domains:1 ())));
  let golden = Golden.run (Helpers.linear_program ()) in
  let runner =
    Option.get
      (Fleet.wave_runner fleet ~job_id:60 ~bench:"helpers.linear" ~fuel:None
         ~model:Ftb_inject.Models.default_spec ~golden)
  in
  Alcotest.(check int) "a wave holds one shard per executor" 2 (runner.Engine.wave_size ());
  let ran = ref 0 in
  let t0 = Unix.gettimeofday () in
  let results =
    runner.Engine.run_wave
      (Array.init 4 (fun i -> { Engine.shard = i; attempt = 1; lo = 4 * i; hi = (4 * i) + 4 }))
      ~commit:(fun ~shard:_ _ -> Alcotest.fail "nothing was leased, so nothing commits")
      ~run_local:(fun ~lo:_ ~hi:_ -> incr ran)
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "every shard resolved" true
    (List.length results = 4 && List.for_all (fun (_, r) -> r = Ok ()) results);
  Alcotest.(check int) "all on the local holder" 4 !ran;
  Alcotest.(check bool)
    (Printf.sprintf "finished in well under the lease TTL (%.3f s)" elapsed)
    true (elapsed < 1.0);
  let s = Fleet.stats fleet in
  Alcotest.(check int) "local commits" 4 s.Fleet.local_committed;
  Alcotest.(check int) "no grant" 0 s.Fleet.granted

let test_parked_lease_granted () =
  let fleet = Fleet.create ~lease_ttl:5.0 ~audit_rate:0. () in
  let ext cmd json = Option.get (Fleet.extension fleet ~cmd json) in
  let wid = (P.parse_registered (ext "worker_register" (P.register ~domains:1 ()))).P.worker in
  let golden = Golden.run (Helpers.linear_program ()) in
  let runner =
    Option.get
      (Fleet.wave_runner fleet ~job_id:61 ~bench:"helpers.linear" ~fuel:None
         ~model:Ftb_inject.Models.default_spec ~golden)
  in
  (* Parked while no wave is open: the request waits in the daemon. *)
  let grant = park_lease fleet ext ~wid in
  let ran = ref [] in
  let results = ref [] in
  let wave =
    Thread.create
      (fun () ->
        results :=
          runner.Engine.run_wave
            [|
              { Engine.shard = 0; attempt = 1; lo = 0; hi = 4 };
              { Engine.shard = 1; attempt = 1; lo = 4; hi = 8 };
            |]
            ~commit:(fun ~shard:_ _ -> ())
            ~run_local:(fun ~lo ~hi -> ran := (lo, hi) :: !ran))
      ()
  in
  let g = grant () in
  Alcotest.(check int) "the parked request got the wave's first shard" 0 g.P.shard;
  let data = Ftb_dist.Shard.run Ftb_inject.Models.default_spec golden ~lo:g.P.lo ~hi:g.P.hi in
  let digest =
    P.outcome_digest ~job:61 ~shard:g.P.shard ~lo:g.P.lo ~hi:g.P.hi ~fingerprint:g.P.fingerprint data
  in
  let ack =
    P.parse_result_ack
      (ext "worker_result"
         (P.result ~worker:wid ~job:61 ~lease:g.P.lease_id ~shard:g.P.shard
            (P.Blob { data; digest })))
  in
  Thread.join wave;
  Alcotest.(check bool) "the worker's result committed" true ack.P.committed;
  Alcotest.(check bool) "the local holder ran the other shard" true (!ran = [ (4, 8) ]);
  Alcotest.(check bool) "both shards resolved" true
    (List.sort compare !results = [ (0, Ok ()); (1, Ok ()) ]);
  let s = Fleet.stats fleet in
  Alcotest.(check (pair int int)) "one remote and one local commit" (1, 1)
    (s.Fleet.remote_committed, s.Fleet.local_committed)

(* A worker that commits one shard per small wave, 100 waves in one job,
   at audit rate 0.02: the quota is taken over all its commits in the job,
   so the job audits round (0.02 * 100) = 2 shards, not one per wave. *)
let test_audit_quota_per_job () =
  let fleet = Fleet.create ~lease_ttl:5.0 ~audit_rate:0.02 () in
  let program = Helpers.linear_program () in
  let golden = Golden.run program in
  let stop = Atomic.make false in
  let worker =
    Thread.create
      (fun () ->
        Ftb_dist.Worker.run
          (Ftb_dist.Worker.config ~resolve:(fun _ -> program)
             ~stop:(fun () -> Atomic.get stop)
             (fleet_connector fleet)))
      ()
  in
  let local = ref 0 in
  Fun.protect
    ~finally:(fun () -> Atomic.set stop true)
    (fun () ->
      for shard = 0 to 99 do
        await_parked fleet 1;
        match one_shard_wave fleet ~job_id:62 ~golden ~shard ~run_local:(fun ~lo:_ ~hi:_ -> incr local) with
        | [ (_, Ok ()) ] -> ()
        | _ -> Alcotest.fail "a wave did not resolve its shard"
      done);
  Thread.join worker;
  let s = Fleet.stats fleet in
  Alcotest.(check int) "every shard committed remotely" 100 s.Fleet.remote_committed;
  Alcotest.(check int) "the local holder ran nothing" 0 !local;
  Alcotest.(check int) "audited round (rate * commits)" 2 s.Fleet.audited;
  Alcotest.(check int) "no disputes" 0 s.Fleet.disputed

(* The local holder yields its domain between the site pieces of a shard,
   so an in-process worker (its thread and its connection's serving
   thread share that domain) keeps committing while the holder is inside
   one long shard. The stand-in executor spins about 1 ms per piece
   without releasing the domain, as real kernel code does. *)
let test_worker_commits_during_long_local_shard () =
  let fleet = Fleet.create ~lease_ttl:1.0 ~audit_rate:0. () in
  let program =
    Ftb_ir.Ir.to_program (Ftb_ir.Programs.dot ~n:128 ~seed:3 ~tolerance:1e-9)
  in
  let golden = Golden.run program in
  let width = Ftb_inject.Models.spec_width Ftb_inject.Models.default_spec in
  let long_lo = width and long_hi = 81 * width in
  Alcotest.(check bool) "the program has room for the wave" true
    (Golden.sites golden >= 90);
  let stop = Atomic.make false in
  let worker =
    Thread.create
      (fun () ->
        ignore
          (Ftb_dist.Worker.run
             (Ftb_dist.Worker.config ~resolve:(fun _ -> program)
                ~stop:(fun () -> Atomic.get stop)
                (fleet_connector fleet))))
      ()
  in
  await_parked fleet 1;
  (* Shard 0 goes to the parked worker, shard 1 (80 sites) to the local
     holder, and shards 2-9 (one site each) to whoever is free. *)
  let tasks =
    Array.init 10 (fun i ->
        let lo, hi =
          match i with
          | 0 -> (0, width)
          | 1 -> (long_lo, long_hi)
          | i -> (long_hi + ((i - 2) * width), long_hi + ((i - 1) * width))
        in
        { Engine.shard = i; attempt = 1; lo; hi })
  in
  let inside = ref None and commits = ref [] in
  let run_local ~lo ~hi =
    if lo >= long_lo && hi <= long_hi then begin
      let t0 = Unix.gettimeofday () in
      (match !inside with None -> inside := Some (t0, t0) | Some _ -> ());
      while Unix.gettimeofday () -. t0 < 0.001 do
        ()
      done;
      inside := Option.map (fun (first, _) -> (first, Unix.gettimeofday ())) !inside
    end
  in
  let runner =
    Option.get
      (Fleet.wave_runner fleet ~job_id:63 ~bench:"ir.dot" ~fuel:None
         ~model:Ftb_inject.Models.default_spec ~golden)
  in
  let results =
    Fun.protect
      ~finally:(fun () -> Atomic.set stop true)
      (fun () ->
        runner.Engine.run_wave tasks
          ~commit:(fun ~shard _ -> commits := (shard, Unix.gettimeofday ()) :: !commits)
          ~run_local)
  in
  Thread.join worker;
  Alcotest.(check int) "every shard resolved" 10
    (List.length (List.filter (fun (_, r) -> r = Ok ()) results));
  let first, last = Option.get !inside in
  let during = List.filter (fun (_, at) -> at > first && at < last) !commits in
  Alcotest.(check bool)
    (Printf.sprintf "the worker committed %d shards while the holder was inside its long one"
       (List.length during))
    true
    (List.length during >= 2);
  Alcotest.(check bool) "the long shard ran locally" true
    (not (List.mem_assoc 1 !commits))

(* The daemon stopping ends every connection: a worker waiting in a long
   poll sees end-of-file and returns its stats. *)
let test_shutdown_closes_connections () =
  let module Server = Ftb_service.Server in
  let module Client = Ftb_service.Client in
  let state_dir = Filename.temp_dir "ftb_dist_shutdown" "" in
  let fleet = Fleet.create ~lease_ttl:1.0 () in
  let t =
    Server.create
      {
        (Server.default_config ~state_dir) with
        Server.extension = Some (Fleet.extension fleet);
        wave_runner = Some (Fleet.wave_runner fleet);
      }
  in
  Server.start t;
  let connect () =
    let mine, theirs = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    ignore (Thread.create (fun () -> Server.serve_connection t theirs) () : Thread.t);
    mine
  in
  let returned = Atomic.make None in
  let worker =
    Thread.create
      (fun () ->
        Atomic.set returned
          (Some (Ftb_dist.Worker.run (Ftb_dist.Worker.config ~resolve:(fun _ -> Helpers.linear_program ()) connect))))
      ()
  in
  await_parked fleet 1;
  let client = Client.of_fd (connect ()) in
  (match Client.shutdown client with Ok () -> () | Error _ -> Alcotest.fail "shutdown refused");
  Server.join t;
  let deadline = Unix.gettimeofday () +. 5. in
  while Atomic.get returned = None && Unix.gettimeofday () < deadline do
    Thread.delay 0.005
  done;
  (match Atomic.get returned with
  | Some s -> Alcotest.(check int) "the idle worker computed nothing" 0 s.Ftb_dist.Worker.shards
  | None -> Alcotest.fail "the worker was still connected after the daemon stopped");
  Thread.join worker;
  Client.close client

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
    Alcotest.test_case "a silent worker does not stall a wave" `Quick
      test_silent_worker_no_stall;
    Alcotest.test_case "a parked lease request is granted when a wave opens" `Quick
      test_parked_lease_granted;
    Alcotest.test_case "a worker commits while the local holder runs a long shard" `Quick
      test_worker_commits_during_long_local_shard;
    Alcotest.test_case "audit quota is a rate over the job's commits" `Quick
      test_audit_quota_per_job;
    Alcotest.test_case "daemon shutdown closes every connection" `Quick
      test_shutdown_closes_connections;
  ]
