module Json = Ftb_service.Json
module Engine = Ftb_campaign.Engine
module Checkpoint = Ftb_campaign.Checkpoint
module P = Worker_proto

type worker_info = {
  wid : int;
  w_name : string;
  w_domains : int;
  mutable last_seen : float;
  mutable detached : bool;
  mutable quarantined : bool;
  mutable w_committed : int;
  mutable w_failed : int;
  mutable w_disputed : int;
}

(* One committed remote shard, recorded for audit re-execution and cache
   provenance. [r_digest] is the attestation digest, checked server-side
   against the blob that committed. [r_commit] writes an oracle blob over the
   shard in the wave it committed to. [r_overwritten] marks a disputed
   shard whose blob the local oracle replaced. *)
type audit_record = {
  r_shard : int;
  r_lo : int;
  r_hi : int;
  r_wid : int;
  r_name : string;
  r_digest : string;
  r_commit : Bytes.t -> unit;
  mutable r_audited : bool;
  mutable r_overwritten : bool;
}

(* The wave currently being executed for the scheduler thread blocked in
   [drive]. [a_commit] writes a shard's validated blob into the engine's
   outcome buffer; it is called only under the fleet mutex and only when
   the lease table answered [`Committed] for that shard. *)
type active = {
  a_job : int;
  a_bench : string;
  a_fuel : int option;
  a_model : Ftb_inject.Models.spec;
  a_fingerprint : string;
  table : Lease.t;
  a_commit : shard:int -> Bytes.t -> unit;
}

type stats = {
  granted : int;
  remote_committed : int;
  local_committed : int;
  expired : int;
  stale : int;
  failed : int;
  audited : int;
  disputed : int;
  quarantined : int;
  bad_digest : int;
}

type job_provenance = { jp_workers : string list; jp_audited : bool }

type t = {
  mutex : Mutex.t;
  pool : Ftb_inject.Parallel.Pool.t option;
  lease_ttl : float;
  poll : float;
  audit_rate : float;
  audit_seed : int;
  quarantine_after : int;
  mutable on_quarantine : (name:string -> disputes:int -> unit) option;
  mutable workers : worker_info list;
  mutable next_wid : int;
  mutable next_lease : int;
  mutable active : active option;
  (* Audit state for the job currently (or most recently) driven through
     [drive]; the daemon's scheduler runs one job at a time, so a
     single slot suffices. Records accumulate across the job's waves. *)
  mutable audit_job : int option;
  mutable audit_records : audit_record list;
  mutable audited_wids : int list;
  (* Quarantine registry. [barred] is keyed by operator-facing worker
     name so a banned worker cannot shed its record by reconnecting under
     a fresh wid; [quarantined_wids] additionally rejects frames from an
     already-pruned quarantined registration. Both are bounded. *)
  mutable barred : (string * int) list;
  mutable quarantined_wids : int list;
  dispute_counts : (int, int) Hashtbl.t;
  mutable granted : int;
  mutable remote_committed : int;
  mutable local_committed : int;
  mutable expired : int;
  mutable stale : int;
  mutable failed : int;
  mutable audited : int;
  mutable disputed : int;
  mutable quarantined_total : int;
  mutable bad_digest : int;
}

let max_barred = 64
let max_quarantined_wids = 256
let now () = Unix.gettimeofday ()

let create ?pool ?(lease_ttl = 5.0) ?(poll = 0.05) ?(audit_rate = 0.02)
    ?(audit_seed = 0x7f4a7c15) ?(quarantine_after = 2) () =
  if lease_ttl <= 0. then invalid_arg "Fleet.create: lease_ttl must be positive";
  if poll <= 0. then invalid_arg "Fleet.create: poll must be positive";
  if audit_rate < 0. || audit_rate > 1. then
    invalid_arg "Fleet.create: audit_rate must be within [0, 1]";
  if quarantine_after < 1 then
    invalid_arg "Fleet.create: quarantine_after must be positive";
  {
    mutex = Mutex.create ();
    pool;
    lease_ttl;
    poll;
    audit_rate;
    audit_seed;
    quarantine_after;
    on_quarantine = None;
    workers = [];
    next_wid = 1;
    next_lease = 1;
    active = None;
    audit_job = None;
    audit_records = [];
    audited_wids = [];
    barred = [];
    quarantined_wids = [];
    dispute_counts = Hashtbl.create 8;
    granted = 0;
    remote_committed = 0;
    local_committed = 0;
    expired = 0;
    stale = 0;
    failed = 0;
    audited = 0;
    disputed = 0;
    quarantined_total = 0;
    bad_digest = 0;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let set_on_quarantine t f = with_lock t (fun () -> t.on_quarantine <- Some f)

let stats t =
  with_lock t (fun () ->
      {
        granted = t.granted;
        remote_committed = t.remote_committed;
        local_committed = t.local_committed;
        expired = t.expired;
        stale = t.stale;
        failed = t.failed;
        audited = t.audited;
        disputed = t.disputed;
        quarantined = t.quarantined_total;
        bad_digest = t.bad_digest;
      })

(* A worker is live while its frames keep arriving: idle workers refresh
   [last_seen] on every lease poll, busy ones on every heartbeat, so a
   SIGKILLed worker goes silent and ages out after ~3 lease TTLs — the
   same deadline family as the PR 4 stuck-job watchdog, applied to remote
   executors. *)
let live_window t = 3. *. t.lease_ttl

let live_workers_locked t ~now:t_now =
  List.filter
    (fun w ->
      (not w.detached) && (not w.quarantined)
      && t_now -. w.last_seen <= live_window t)
    t.workers

let live_workers t = with_lock t (fun () -> List.length (live_workers_locked t ~now:(now ())))

(* Aging out of the live set is recoverable (a stalled worker's next frame
   revives it), so entries are only *pruned* — removed from [t.workers]
   outright — once detached or silent for far longer than any plausible
   stall. Pruning runs on registration (the only point where the list
   grows) and on the scheduler's periodic expire pass, which bounds the
   list for a long-lived daemon with endlessly reconnecting workers. A
   pruned worker that somehow returns gets a typed [unknown_worker] and
   exits visibly; worker ids are never reused. *)
let prune_window t = 10. *. live_window t

(* Quarantined entries ride the same bounded-list path as detached ones:
   the wid stays barred via [quarantined_wids] and the name via [barred],
   so pruning the registry row loses no enforcement, only the row. *)
let prune_workers_locked t ~now:t_now =
  t.workers <-
    List.filter
      (fun w ->
        (not w.detached) && (not w.quarantined)
        && t_now -. w.last_seen <= prune_window t)
      t.workers

let live_slots_locked t ~now:t_now =
  List.fold_left (fun acc w -> acc + max 1 w.w_domains) 0 (live_workers_locked t ~now:t_now)

let find_worker_locked t wid =
  List.find_opt (fun w -> w.wid = wid) t.workers

let touch_worker_locked t wid =
  match find_worker_locked t wid with
  | Some w ->
      w.last_seen <- now ();
      true
  | None -> false

(* ------------------------------------------------------------------ *)
(* Protocol handlers (connection threads). Strict request/response: each
   returns exactly one reply frame. *)

(* Worker names key the quarantine bar, so they must survive a trip
   through provenance tokens and CLI arguments unambiguously: anything
   outside [A-Za-z0-9._-] is folded to '-'. *)
let sanitize_name name =
  String.map
    (fun c ->
      match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '.' | '_' | '-' -> c | _ -> '-')
    name

let quarantined_locked t wid = List.mem wid t.quarantined_wids

let handle_register t json =
  let domains = match P.opt_int "domains" json with Some d when d >= 1 -> d | _ -> 1 in
  let name = Option.map sanitize_name (P.opt_str "name" json) in
  with_lock t (fun () ->
      let t_now = now () in
      prune_workers_locked t ~now:t_now;
      let barred_as =
        Option.bind name (fun n -> List.assoc_opt n t.barred |> Option.map (fun d -> (n, d)))
      in
      match barred_as with
      | Some (n, disputes) ->
          P.error_frame "quarantined"
            (Printf.sprintf
               "worker name %S is quarantined (%d disputed shards); an operator must run `ftb workers --clear %s`"
               n disputes n)
      | None ->
          let wid = t.next_wid in
          t.next_wid <- wid + 1;
          let w_name =
            match name with Some n when n <> "" -> n | _ -> Printf.sprintf "worker-%d" wid
          in
          t.workers <-
            {
              wid;
              w_name;
              w_domains = domains;
              last_seen = t_now;
              detached = false;
              quarantined = false;
              w_committed = 0;
              w_failed = 0;
              w_disputed = 0;
            }
            :: t.workers;
          P.registered ~worker:wid ~ttl:t.lease_ttl)

let handle_lease t json =
  let wid = P.req_int "worker" json in
  with_lock t (fun () ->
      if quarantined_locked t wid then
        P.error_frame "quarantined"
          (Printf.sprintf "worker %d is quarantined; leases are refused" wid)
      else if not (touch_worker_locked t wid) then
        P.error_frame "unknown_worker" (Printf.sprintf "no worker %d" wid)
      else
        match t.active with
        | None -> P.wait_frame ~poll:t.poll
        | Some a -> (
            let t_now = now () in
            t.expired <- t.expired + Lease.expire a.table ~now:t_now;
            match
              Lease.acquire a.table ~max_cases:P.max_result_cases ~holder:wid
                ~now:t_now ~ttl:t.lease_ttl
            with
            | None -> P.wait_frame ~poll:t.poll
            | Some g ->
                t.granted <- t.granted + 1;
                P.grant_frame
                  {
                    P.job_id = a.a_job;
                    bench = a.a_bench;
                    fuel = a.a_fuel;
                    model = a.a_model;
                    fingerprint = a.a_fingerprint;
                    lease_id = g.Lease.lease_id;
                    shard = g.Lease.shard;
                    lo = g.Lease.lo;
                    hi = g.Lease.hi;
                    ttl = t.lease_ttl;
                  }))

let handle_heartbeat t json =
  let wid = P.req_int "worker" json in
  let lease = P.opt_int "lease" json in
  with_lock t (fun () ->
      if not (touch_worker_locked t wid) then
        P.error_frame "unknown_worker" (Printf.sprintf "no worker %d" wid)
      else
        let valid =
          match (t.active, lease) with
          | Some a, Some lease_id ->
              Lease.renew a.table ~lease_id ~now:(now ()) ~ttl:t.lease_ttl
          | _ -> false
        in
        P.heartbeat_reply ~valid)

let handle_result t json =
  let r = P.parse_result json in
  let wid = r.P.res_worker and shard = r.P.res_shard and lease_id = r.P.res_lease in
  with_lock t (fun () ->
      ignore (touch_worker_locked t wid : bool);
      let stale () =
        t.stale <- t.stale + 1;
        P.result_ack_frame ~committed:false ~stale:true
      in
      if quarantined_locked t wid then
        P.error_frame "quarantined"
          (Printf.sprintf "worker %d is quarantined; results are refused" wid)
      else
      match t.active with
      | None ->
          (* The wave is over (the job finished, was cancelled, or failed);
             a straggler's work is simply dropped. *)
          stale ()
      | Some a when a.a_job <> r.P.res_job ->
          (* A straggler from an earlier job: commits are keyed by shard
             index, and a later job may reuse the index with the same
             bounds, so without this check the old bench's outcome bytes
             would land in the new campaign. Within one job late results
             are byte-identical (pure function of the golden trace) and
             first-result-wins stays sound; across jobs they are dropped. *)
          stale ()
      | Some a -> (
          (* A refused blob fails its lease, so the engine's retry re-runs
             the shard; a refusal of a lease that is no longer current
             changes nothing. *)
          let refuse code message =
            ignore (Lease.fail a.table ~lease_id ~message : [ `Committed | `Stale ]);
            P.error_frame code (Printf.sprintf "shard %d: %s" shard message)
          in
          match r.P.res_payload with
          | Error message -> refuse "bad_result" message
          | Ok (P.Failed message) -> (
              match Lease.fail a.table ~lease_id ~message with
              | `Committed ->
                  t.failed <- t.failed + 1;
                  (match find_worker_locked t wid with
                  | Some w -> w.w_failed <- w.w_failed + 1
                  | None -> ());
                  P.result_ack_frame ~committed:true ~stale:false
              | `Stale -> stale ())
          | Ok (P.Blob { data; digest }) -> (
              match Lease.bounds a.table ~shard with
              | None -> stale ()
              | Some (lo, hi) -> (
                  (* Validation, then attestation: a blob that does not fit
                     its grant never reaches the campaign, and neither does
                     one whose frame digest disagrees with the server's
                     recomputation — that frame was corrupted in transit or
                     encoding, which is not a dispute (the worker's
                     execution is not in question, its frame is). *)
                  let sdigest () =
                    P.outcome_digest ~job:a.a_job ~shard ~lo ~hi
                      ~fingerprint:a.a_fingerprint data
                  in
                  match Shard.check ~lo ~hi data with
                  | Error message -> refuse "bad_result" message
                  | Ok () when digest <> sdigest () ->
                      t.bad_digest <- t.bad_digest + 1;
                      refuse "digest_mismatch" "result blob does not match its attestation digest"
                  | Ok () -> (
                      match Lease.commit a.table ~shard with
                      | `Committed ->
                          a.a_commit ~shard data;
                          t.remote_committed <- t.remote_committed + 1;
                          let r_name =
                            match find_worker_locked t wid with
                            | Some w ->
                                w.w_committed <- w.w_committed + 1;
                                w.w_name
                            | None -> Printf.sprintf "worker-%d" wid
                          in
                          t.audit_records <-
                            {
                              r_shard = shard;
                              r_lo = lo;
                              r_hi = hi;
                              r_wid = wid;
                              r_name;
                              r_digest = digest;
                              r_commit = a.a_commit ~shard;
                              r_audited = false;
                              r_overwritten = false;
                            }
                            :: t.audit_records;
                          P.result_ack_frame ~committed:true ~stale:false
                      | `Stale | `Unknown -> stale ())))))

let handle_detach t json =
  let wid = P.req_int "worker" json in
  with_lock t (fun () ->
      (match find_worker_locked t wid with
      | Some w ->
          w.detached <- true;
          (match t.active with
          | Some a -> t.expired <- t.expired + Lease.release_holder a.table ~holder:wid
          | None -> ())
      | None -> ());
      P.detached_frame)

let handle_workers t _json =
  with_lock t (fun () ->
      let t_now = now () in
      let rows =
        t.workers
        |> List.map (fun w ->
               {
                 P.row_wid = w.wid;
                 row_name = w.w_name;
                 row_domains = w.w_domains;
                 row_age = Float.max 0. (t_now -. w.last_seen);
                 row_committed = w.w_committed;
                 row_failed = w.w_failed;
                 row_disputed = w.w_disputed;
                 row_quarantined = w.quarantined;
               })
        |> List.sort (fun a b -> compare a.P.row_wid b.P.row_wid)
      in
      P.workers_frame rows ~barred:(List.rev t.barred))

let handle_clear t json =
  let name = sanitize_name (P.req_str "name" json) in
  with_lock t (fun () ->
      let cleared = List.mem_assoc name t.barred in
      t.barred <- List.filter (fun (n, _) -> n <> name) t.barred;
      P.cleared_frame ~cleared)

let extension t ~cmd json =
  let guarded f =
    try f t json with
    | P.Decode_error msg -> P.error_frame "bad_request" msg
  in
  match cmd with
  | "worker_register" -> Some (guarded handle_register)
  | "worker_lease" -> Some (guarded handle_lease)
  | "worker_heartbeat" -> Some (guarded handle_heartbeat)
  | "worker_result" -> Some (guarded handle_result)
  | "worker_detach" -> Some (guarded handle_detach)
  | "worker_stats" -> Some (guarded handle_workers)
  | "worker_clear" -> Some (guarded handle_clear)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Quarantine. Registry mutations happen under the mutex; the operator
   hook fires outside it (the server's hook takes its own locks to purge
   caches and notify watchers, so calling it under the fleet mutex would
   invert lock order). *)

let take_bounded n xs = if List.length xs > n then List.filteri (fun i _ -> i < n) xs else xs

let quarantine_locked t ~wid ~name ~disputes =
  t.quarantined_total <- t.quarantined_total + 1;
  t.barred <- take_bounded max_barred ((name, disputes) :: List.filter (fun (n, _) -> n <> name) t.barred);
  t.quarantined_wids <- take_bounded max_quarantined_wids (wid :: t.quarantined_wids);
  (match find_worker_locked t wid with
  | Some w -> w.quarantined <- true
  | None -> ());
  (* Revoke anything the worker still holds so surviving workers (or the
     local fallback) pick the shards up immediately instead of waiting
     out the lease TTL. *)
  match t.active with
  | Some a -> t.expired <- t.expired + Lease.release_holder a.table ~holder:wid
  | None -> ()

(* ------------------------------------------------------------------ *)
(* The scheduler side (scheduler thread): one lease-driving loop, with
   the engine's dense waves as a thin adapter over it. *)

let local_holder = 0 (* worker ids start at 1 *)

(* Deterministic audit sampling: a seeded integer hash orders each
   worker's committed shards, and the first [quota] are audited. The
   order depends only on (seed, job, shard), so a re-run of the same
   campaign audits the same shards — reproducibility is the project's
   spine and the audit layer keeps it. *)
let audit_hash t ~job ~shard =
  let h = (shard + 1) * 0x9e3779b1 in
  let h = h lxor (job * 0x85ebca77) lxor t.audit_seed in
  let h = h lxor (h lsr 13) in
  h land max_int

(* Audit and adjudicate the current job's committed shards. Runs on the
   scheduler thread after a wave's lease table is closed ([t.active] is
   [None]), so the record list is quiescent and the wave's consumer (the
   engine's checkpoint) has not seen the wave yet: a disputed shard's blob
   is replaced before it can be persisted. The local executor, on the
   daemon's pool, is the oracle — a shard's blob is a pure function of
   the golden trace, so a recomputed blob that disagrees with a worker's
   digest is a 2-of-2 quorum against it (honest-worker agreement is
   checked the same way, shard by shard). *)
let audit_job_locked_free t ~fuel ~model ~golden ~fingerprint =
  if t.audit_rate <= 0. then []
  else begin
    let job = match t.audit_job with Some j -> j | None -> -1 in
    let audit_one r =
      with_lock t (fun () -> t.audited <- t.audited + 1);
      let blob = Shard.run ?pool:t.pool ?fuel model golden ~lo:r.r_lo ~hi:r.r_hi in
      let expect =
        P.outcome_digest ~job ~shard:r.r_shard ~lo:r.r_lo ~hi:r.r_hi ~fingerprint blob
      in
      r.r_audited <- true;
      if expect = r.r_digest then true
      else begin
        (* Disputed: the oracle's blob replaces the worker's. The wave's
           consumer is still blocked in [drive], so the overwrite lands
           before anything can observe the lying blob. *)
        r.r_commit blob;
        r.r_overwritten <- true;
        false
      end
    in
    let records = with_lock t (fun () -> t.audit_records) in
    let by_wid = Hashtbl.create 8 in
    List.iter
      (fun r ->
        if not r.r_audited then
          Hashtbl.replace by_wid r.r_wid
            (r :: (Option.value ~default:[] (Hashtbl.find_opt by_wid r.r_wid))))
      records;
    let quarantined_now = ref [] in
    Hashtbl.iter
      (fun wid recs ->
        let prior = with_lock t (fun () ->
            Option.value ~default:0 (Hashtbl.find_opt t.dispute_counts wid))
        in
        let first_time =
          with_lock t (fun () -> not (List.mem wid t.audited_wids))
        in
        (* A worker with any prior dispute is fully audited from then on —
           suspicion is sticky for the job. *)
        let picks =
          if prior > 0 then recs
          else begin
            let n = List.length recs in
            let quota =
              int_of_float (Float.round (t.audit_rate *. float_of_int n))
            in
            let quota = if first_time then max 1 quota else quota in
            let quota = min n quota in
            let sorted =
              List.sort
                (fun a b ->
                  compare
                    (audit_hash t ~job ~shard:a.r_shard)
                    (audit_hash t ~job ~shard:b.r_shard))
                recs
            in
            List.filteri (fun i _ -> i < quota) sorted
          end
        in
        let disputes_here =
          List.fold_left (fun acc r -> if audit_one r then acc else acc + 1) 0 picks
        in
        (* Escalation: any dispute triggers full re-execution of the
           worker's remaining committed shards for this job. *)
        let disputes_here =
          if disputes_here > 0 then
            List.fold_left
              (fun acc r -> if r.r_audited || audit_one r then acc else acc + 1)
              disputes_here recs
          else disputes_here
        in
        with_lock t (fun () ->
            t.audited_wids <- wid :: List.filter (( <> ) wid) t.audited_wids;
            if disputes_here > 0 then begin
              let total = prior + disputes_here in
              Hashtbl.replace t.dispute_counts wid total;
              t.disputed <- t.disputed + disputes_here;
              (match find_worker_locked t wid with
              | Some w -> w.w_disputed <- w.w_disputed + disputes_here
              | None -> ());
              if total >= t.quarantine_after && not (quarantined_locked t wid)
              then begin
                let name =
                  match find_worker_locked t wid with
                  | Some w -> w.w_name
                  | None -> (
                      match List.find_opt (fun r -> r.r_wid = wid) recs with
                      | Some r -> r.r_name
                      | None -> Printf.sprintf "worker-%d" wid)
                in
                quarantine_locked t ~wid ~name ~disputes:total;
                quarantined_now := (name, total) :: !quarantined_now
              end
            end))
      by_wid;
    !quarantined_now
  end

let job_provenance t ~job_id =
  with_lock t (fun () ->
      if t.audit_job <> Some job_id then None
      else
        let surviving =
          List.filter (fun r -> not r.r_overwritten) t.audit_records
        in
        let jp_workers =
          List.fold_left
            (fun acc r -> if List.mem r.r_name acc then acc else r.r_name :: acc)
            [] surviving
          |> List.sort compare
        in
        let jp_audited =
          t.audit_rate > 0. && List.for_all (fun r -> r.r_audited) surviving
        in
        Some { jp_workers; jp_audited })

(* Drive one wave — [tasks] are (shard, lo, hi) of a dense campaign — to
   completion. Workers lease the wave's shards through [handle_lease]
   and commit validated blobs through [handle_result]; this loop expires
   dead workers' leases, prunes the registry, and runs on the local
   executor every shard no worker may take: all of them once no live
   worker remains (the executor of last resort, so the wave always
   completes), and shards whose blob could not fit a wire frame at any
   time. Then it audits the wave's remote commits and fires the
   quarantine hook before handing the per-shard results back. *)
let drive t ~job_id ~bench ~fuel ~model ~golden ~fingerprint ~commit tasks =
  let table =
    with_lock t (fun () ->
        if t.audit_job <> Some job_id then begin
          t.audit_job <- Some job_id;
          t.audit_records <- [];
          t.audited_wids <- []
        end;
        let table = Lease.create ~first_lease:t.next_lease tasks in
        t.active <-
          Some
            {
              a_job = job_id;
              a_bench = bench;
              a_fuel = fuel;
              a_model = model;
              a_fingerprint = fingerprint;
              table;
              a_commit = commit;
            };
        table)
  in
  (* Compute outside the lock, commit under it: if a straggler's
     validated blob won the first-result race meanwhile, it stays
     (byte-identical anyway for an honest worker) and this one is
     dropped as stale. *)
  let run_local (g : Lease.grant) =
    match Shard.run ?pool:t.pool ?fuel model golden ~lo:g.lo ~hi:g.hi with
    | blob ->
        with_lock t (fun () ->
            match Lease.commit table ~shard:g.shard with
            | `Committed ->
                commit ~shard:g.shard blob;
                t.local_committed <- t.local_committed + 1
            | `Stale | `Unknown -> t.stale <- t.stale + 1)
    | exception e ->
        with_lock t (fun () ->
            ignore
              (Lease.fail table ~lease_id:g.lease_id ~message:(Printexc.to_string e)
                : [ `Committed | `Stale ]))
  in
  let rec loop () =
    let claim =
      with_lock t (fun () ->
          let t_now = now () in
          prune_workers_locked t ~now:t_now;
          t.expired <- t.expired + Lease.expire table ~now:t_now;
          if Lease.outstanding table = 0 then begin
            t.next_lease <- Lease.next_lease table;
            t.active <- None;
            `Finished (Lease.results table)
          end
          else
            (* An infinite TTL marks the local lease as never-expiring —
               the local runner cannot be SIGKILLed away from under the
               daemon. *)
            let min_cases =
              if live_workers_locked t ~now:t_now = [] then 0 else P.max_result_cases + 1
            in
            match
              Lease.acquire table ~min_cases ~holder:local_holder ~now:t_now ~ttl:infinity
            with
            | Some g -> `Local g
            | None -> `Wait)
    in
    match claim with
    | `Finished results -> results
    | `Local g ->
        run_local g;
        loop ()
    | `Wait ->
        Thread.delay (min t.poll (t.lease_ttl /. 4.));
        loop ()
  in
  let results = loop () in
  let quarantined_now = audit_job_locked_free t ~fuel ~model ~golden ~fingerprint in
  (match with_lock t (fun () -> t.on_quarantine) with
  | Some hook -> List.iter (fun (name, disputes) -> hook ~name ~disputes) quarantined_now
  | None -> ());
  results

let wave_runner t ~job_id ~bench ~fuel ~model ~golden =
  if live_workers t = 0 then None
  else
    let fingerprint = Checkpoint.fingerprint_of_golden golden in
    let wave_size () =
      with_lock t (fun () -> max 2 (2 * live_slots_locked t ~now:(now ())))
    in
    (* The engine's post-wave checkpoint only ever persists adjudicated
       bytes: [drive] audits before it returns. *)
    let run_wave (tasks : Engine.shard_task array) ~commit ~run_local:_ =
      drive t ~job_id ~bench ~fuel ~model ~golden ~fingerprint ~commit
        (Array.map (fun (task : Engine.shard_task) -> (task.shard, task.lo, task.hi)) tasks)
    in
    Some { Engine.wave_size; run_wave }
