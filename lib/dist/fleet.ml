module Json = Ftb_service.Json
module Engine = Ftb_campaign.Engine
module Checkpoint = Ftb_campaign.Checkpoint
module Pool = Ftb_inject.Parallel.Pool
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

(* A lease request waiting for work. A wave that opens while it waits
   hands it a grant before the local holder's first claim. *)
type parked = { p_wid : int; mutable p_grant : Json.t option }

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
  parked : int;
}

type job_provenance = { jp_workers : string list; jp_audited : bool }

type t = {
  mutex : Mutex.t;
  (* Broadcast, under [mutex], on every event a waiter may be waiting
     for: a wave opening, a commit or failure, a detach, a quarantine, an
     expiry, the daemon stopping, and a registered deadline passing. *)
  wake : Condition.t;
  pool : Pool.t option;
  lease_ttl : float;
  audit_rate : float;
  audit_seed : int;
  quarantine_after : int;
  mutable on_quarantine : (name:string -> disputes:int -> unit) option;
  mutable workers : worker_info list;
  mutable next_wid : int;
  mutable next_lease : int;
  mutable active : active option;
  mutable parked : parked list;  (* oldest first *)
  mutable closed : bool;
  (* Deadlines of the timed waits in progress, and the alarm thread that
     broadcasts [wake] when one passes; [fired] is the last time it did. *)
  mutable deadlines : float list;
  mutable alarm : bool;
  mutable fired : float;
  (* Audit state for the job currently (or most recently) driven through
     [drive]; the daemon's scheduler runs one job at a time, so a
     single slot suffices. Records accumulate across the job's waves. *)
  mutable audit_job : int option;
  mutable audit_records : audit_record list;
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

let create ?pool ?(lease_ttl = 5.0) ?(audit_rate = 0.02) ?(audit_seed = 0x7f4a7c15)
    ?(quarantine_after = 2) () =
  if lease_ttl <= 0. then invalid_arg "Fleet.create: lease_ttl must be positive";
  if audit_rate < 0. || audit_rate > 1. then
    invalid_arg "Fleet.create: audit_rate must be within [0, 1]";
  if quarantine_after < 1 then
    invalid_arg "Fleet.create: quarantine_after must be positive";
  {
    mutex = Mutex.create ();
    wake = Condition.create ();
    pool;
    lease_ttl;
    audit_rate;
    audit_seed;
    quarantine_after;
    on_quarantine = None;
    workers = [];
    next_wid = 1;
    next_lease = 1;
    active = None;
    parked = [];
    closed = false;
    deadlines = [];
    alarm = false;
    fired = neg_infinity;
    audit_job = None;
    audit_records = [];
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
        parked = List.length (List.filter (fun p -> p.p_grant = None) t.parked);
      })

(* ------------------------------------------------------------------ *)
(* Waiting on events. OCaml's [Condition] has no timed wait, so a waiter
   that must also wake at a deadline registers it, and one alarm thread
   per fleet sleeps until the earliest registered deadline and then
   broadcasts [wake]. The alarm runs only while deadlines are registered.
   It sleeps at most one park bound at a time, so a deadline registered
   while it sleeps towards a later one is honoured within that bound;
   parks and fresh leases always lie at least that far out. *)

let park_bound t = t.lease_ttl /. 4.

let rec alarm_loop t =
  match List.filter (fun d -> d > t.fired) t.deadlines with
  | [] -> t.alarm <- false
  | ds ->
      let t_now = now () in
      let next = List.fold_left Float.min infinity ds in
      if next <= t_now then begin
        t.fired <- t_now;
        Condition.broadcast t.wake
      end
      else begin
        Mutex.unlock t.mutex;
        Thread.delay (Float.min (next -. t_now) (park_bound t));
        Mutex.lock t.mutex
      end;
      alarm_loop t

let rec remove_one x = function [] -> [] | y :: ys -> if y = x then ys else y :: remove_one x ys

(* Wait for the next broadcast, or until [until] passes. Callers hold
   the mutex and re-check their own condition afterwards. *)
let wait_locked t ~until =
  if until = infinity then Condition.wait t.wake t.mutex
  else if until > now () then begin
    t.deadlines <- until :: t.deadlines;
    if not t.alarm then begin
      t.alarm <- true;
      ignore (Thread.create (fun () -> with_lock t (fun () -> alarm_loop t)) () : Thread.t)
    end;
    Condition.wait t.wake t.mutex;
    t.deadlines <- remove_one until t.deadlines
  end

let expire_locked t table ~now:t_now =
  let n = Lease.expire table ~now:t_now in
  if n > 0 then begin
    t.expired <- t.expired + n;
    Condition.broadcast t.wake
  end

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

(* The daemon's own executor, a holder in every wave's lease table. *)
let local_holder = 0 (* worker ids start at 1 *)

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

(* A worker may take any pending shard whose result fits a frame. *)
let grant_locked t a ~wid ~now:t_now =
  expire_locked t a.table ~now:t_now;
  match
    Lease.acquire a.table ~max_cases:P.max_result_cases ~holder:wid ~now:t_now
      ~ttl:t.lease_ttl
  with
  | None -> None
  | Some g ->
      t.granted <- t.granted + 1;
      Some
        (P.grant_frame
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
           })

(* A long poll: the request waits here until a shard is leasable or one
   park bound passes, and only then answers [Wait] (with a zero delay:
   the worker re-polls at once). An idle worker therefore costs one round
   trip per park bound, and a wave that opens finds it already waiting. *)
let handle_lease t json =
  let wid = P.req_int "worker" json in
  let quarantined () =
    P.error_frame "quarantined"
      (Printf.sprintf "worker %d is quarantined; leases are refused" wid)
  in
  with_lock t (fun () ->
      if quarantined_locked t wid then quarantined ()
      else if not (touch_worker_locked t wid) then
        P.error_frame "unknown_worker" (Printf.sprintf "no worker %d" wid)
      else begin
        let deadline = now () +. park_bound t in
        let p = { p_wid = wid; p_grant = None } in
        t.parked <- t.parked @ [ p ];
        let rec serve () =
          if quarantined_locked t wid then quarantined ()
          else if t.closed then P.error_frame "shutting_down" "daemon is stopping"
          else
            match p.p_grant with
            | Some frame -> frame
            | None -> (
                let t_now = now () in
                match Option.bind t.active (fun a -> grant_locked t a ~wid ~now:t_now) with
                | Some frame -> frame
                | None when t_now >= deadline -> P.wait_frame ~poll:0.
                | None ->
                    wait_locked t ~until:deadline;
                    serve ())
        in
        Fun.protect ~finally:(fun () -> t.parked <- List.filter (( != ) p) t.parked) serve
      end)

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
            Condition.broadcast t.wake;
            P.error_frame code (Printf.sprintf "shard %d: %s" shard message)
          in
          match r.P.res_payload with
          | Error message -> refuse "bad_result" message
          | Ok (P.Failed message) -> (
              match Lease.fail a.table ~lease_id ~message with
              | `Committed ->
                  Condition.broadcast t.wake;
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
                  | Ok () when Lease.holder a.table ~shard = Some local_holder ->
                      (* The local holder is writing this range in place
                         and commits it itself. *)
                      stale ()
                  | Ok () -> (
                      match Lease.commit a.table ~shard with
                      | `Committed ->
                          a.a_commit ~shard data;
                          Condition.broadcast t.wake;
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
          | None -> ());
          Condition.broadcast t.wake
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
  | "shutdown" ->
      (* The daemon is stopping: parked requests answer at once, and so
         does every later one. *)
      with_lock t (fun () ->
          t.closed <- true;
          Condition.broadcast t.wake);
      Some P.detached_frame
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
     local holder) pick the shards up immediately instead of waiting out
     the lease TTL, and turn away its parked lease request. *)
  (match t.active with
  | Some a -> t.expired <- t.expired + Lease.release_holder a.table ~holder:wid
  | None -> ());
  Condition.broadcast t.wake

(* ------------------------------------------------------------------ *)
(* The scheduler side (scheduler thread): one lease-driving loop, with
   the engine's dense waves as a thin adapter over it. *)

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
        Hashtbl.replace by_wid r.r_wid
          (r :: Option.value ~default:[] (Hashtbl.find_opt by_wid r.r_wid)))
      records;
    let quarantined_now = ref [] in
    Hashtbl.iter
      (fun wid all ->
        let recs = List.filter (fun r -> not r.r_audited) all in
        let prior = with_lock t (fun () ->
            Option.value ~default:0 (Hashtbl.find_opt t.dispute_counts wid))
        in
        (* A worker with any prior dispute is fully audited from then on —
           suspicion is sticky for the job. *)
        let picks =
          if prior > 0 then recs
          else begin
            (* The quota is the rate over every shard the worker committed
               in the job, less those already audited, so the job's audit
               count does not grow with its number of waves. A worker's
               first audit in a job is guaranteed. *)
            let n = List.length recs in
            let audited = List.length all - n in
            let quota =
              int_of_float (Float.round (t.audit_rate *. float_of_int (List.length all)))
              - audited
            in
            let quota = if audited = 0 then max 1 quota else quota in
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
   completion. The local holder (this thread) is a holder in the wave's
   lease table like any worker: it claims a pending shard whenever it is
   free and runs it through the engine's [run_local], in place, on the
   daemon's pool. Workers lease shards through [handle_lease] and commit
   validated blobs through [handle_result]. With nothing left to claim,
   the loop waits for an event or the next lease deadline, then expires
   dead workers' leases and prunes the registry. Lease requests parked
   when the wave opens get their shards before the local holder's first
   claim, so an idle worker always shares the wave. Then it audits the
   wave's remote commits and fires the quarantine hook before handing
   the per-shard results back. *)
let drive t ~job_id ~bench ~fuel ~model ~golden ~fingerprint ~commit ~run_local tasks =
  let table =
    with_lock t (fun () ->
        if t.audit_job <> Some job_id then begin
          t.audit_job <- Some job_id;
          t.audit_records <- []
        end;
        let table = Lease.create ~first_lease:t.next_lease tasks in
        let a =
          {
            a_job = job_id;
            a_bench = bench;
            a_fuel = fuel;
            a_model = model;
            a_fingerprint = fingerprint;
            table;
            a_commit = commit;
          }
        in
        t.active <- Some a;
        let t_now = now () in
        List.iter
          (fun p ->
            if p.p_grant = None && not (quarantined_locked t p.p_wid) then
              p.p_grant <- grant_locked t a ~wid:p.p_wid ~now:t_now)
          t.parked;
        Condition.broadcast t.wake;
        table)
  in
  (* An infinite TTL marks the local lease as never expiring: the local
     holder cannot be SIGKILLed away from under the daemon. *)
  let rec claim () =
    let t_now = now () in
    prune_workers_locked t ~now:t_now;
    expire_locked t table ~now:t_now;
    if Lease.outstanding table = 0 then begin
      t.next_lease <- Lease.next_lease table;
      t.active <- None;
      `Finished (Lease.results table)
    end
    else
      match Lease.acquire table ~holder:local_holder ~now:t_now ~ttl:infinity with
      | Some g -> `Local g
      | None ->
          wait_locked t ~until:(Lease.next_deadline table);
          claim ()
  in
  (* The local holder runs its shard in site pieces, over the pool when
     the daemon has one. Between pieces this thread yields its domain:
     the connection threads that answer workers' results and lease
     requests run on the same domain, and would otherwise wait for the
     runtime's 50 ms tick while a worker idles. *)
  let run (g : Lease.grant) =
    let pieces = Ftb_inject.Executor.site_pieces model ~lo:g.lo ~hi:g.hi in
    let home = Domain.self () in
    Pool.each t.pool ~total:(Array.length pieces) (fun i ->
        let lo, hi = pieces.(i) in
        run_local ~lo ~hi;
        if Domain.self () = home then Thread.yield ())
  in
  let rec loop () =
    match with_lock t claim with
    | `Finished results -> results
    | `Local g ->
        let message = match run g with () -> None | exception e -> Some (Printexc.to_string e) in
        with_lock t (fun () ->
            match message with
            | None -> (
                match Lease.commit table ~shard:g.shard with
                | `Committed -> t.local_committed <- t.local_committed + 1
                | `Stale | `Unknown -> t.stale <- t.stale + 1)
            | Some message ->
                ignore (Lease.fail table ~lease_id:g.lease_id ~message : [ `Committed | `Stale ]));
        loop ()
  in
  let results = loop () in
  let quarantined_now = audit_job_locked_free t ~fuel ~model ~golden ~fingerprint in
  (match with_lock t (fun () -> t.on_quarantine) with
  | Some hook -> List.iter (fun (name, disputes) -> hook ~name ~disputes) quarantined_now
  | None -> ());
  results

(* A wave holds one shard per executor it must keep busy: the local
   holder's domains plus every live worker's. *)
let wave_runner t ~job_id ~bench ~fuel ~model ~golden =
  if live_workers t = 0 then None
  else
    let fingerprint = Checkpoint.fingerprint_of_golden golden in
    let local_slots = match t.pool with Some pool -> Pool.domains pool | None -> 1 in
    let wave_size () = with_lock t (fun () -> local_slots + live_slots_locked t ~now:(now ())) in
    (* The engine's post-wave checkpoint only ever persists adjudicated
       bytes: [drive] audits before it returns. *)
    let run_wave (tasks : Engine.shard_task array) ~commit ~run_local =
      drive t ~job_id ~bench ~fuel ~model ~golden ~fingerprint ~commit ~run_local
        (Array.map (fun (task : Engine.shard_task) -> (task.shard, task.lo, task.hi)) tasks)
    in
    Some { Engine.wave_size; run_wave }
