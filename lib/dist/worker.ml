module Golden = Ftb_trace.Golden
module Wire = Ftb_service.Wire
module Checkpoint = Ftb_campaign.Checkpoint
module Pool = Ftb_inject.Parallel.Pool
module P = Worker_proto

type config = {
  connect : unit -> Unix.file_descr;
  domains : int;
  resolve : string -> Ftb_trace.Program.t;
  stop : unit -> bool;
  log : (string -> unit) option;
  name : string option;
  tamper : (bench:string -> shard:int -> Bytes.t -> Bytes.t) option;
}

let config ?(domains = 1) ?(resolve = Ftb_kernels.Suite.find)
    ?(stop = fun () -> false) ?log ?name ?tamper connect =
  if domains <= 0 then invalid_arg "Worker.config: domains must be positive";
  { connect; domains; resolve; stop; log; name; tamper }

type stats = { shards : int; cases : int; failures : int; stale_acks : int }

let logf cfg fmt =
  Printf.ksprintf
    (fun msg -> match cfg.log with Some log -> log msg | None -> ())
    fmt

let roundtrip fd frame =
  Wire.write fd frame;
  Wire.read fd

(* The golden run for a bench is computed once per worker process and
   reused across shards and jobs; the fingerprint in each grant guards
   against ever computing outcome bytes from a divergent trace (version
   skew between daemon and worker binaries). Bounded: a long-lived worker
   serving many benches re-runs a cold golden rather than holding every
   trace it has ever seen. Only the pull loop touches the cache, so the
   (thread-unsafe) LRU needs no lock. *)
let golden_cache_capacity = 16
let golden_cache : (string, Golden.t) Ftb_util.Lru.t =
  Ftb_util.Lru.create ~capacity:golden_cache_capacity

let golden_cache_length () = Ftb_util.Lru.length golden_cache

let golden_for cfg bench =
  Ftb_util.Lru.find_or_add golden_cache bench (fun () ->
      Golden.run (cfg.resolve bench))

let run cfg =
  (* A daemon hanging up mid-write must surface as EPIPE (a clean exit
     with stats, like Server.run's own handling), not kill the process. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let ctl = cfg.connect () in
  let hb_fd = ref (cfg.connect ()) in
  let reg =
    P.parse_registered
      (roundtrip ctl (P.register ?name:cfg.name ~domains:cfg.domains ()))
  in
  let wid = reg.P.worker in
  let ttl = reg.P.ttl in
  logf cfg "worker %d registered (domains=%d, ttl=%.3fs)" wid cfg.domains ttl;
  let pool = if cfg.domains > 1 then Some (Pool.global ~domains:cfg.domains ()) else None in
  (* Heartbeats ride a second connection so the control channel stays
     strictly request/response while a shard computes. Only this thread
     ever touches [hb_fd] while it runs; a broken heartbeat channel is
     reconnected in place, and if that fails too the thread raises
     [hb_failed] so the main loop exits visibly — a worker must never
     keep computing shards whose leases it can no longer renew (every
     result would be discarded as stale). *)
  let current_lease = Atomic.make None in
  let hb_stop = Atomic.make false in
  let hb_failed = Atomic.make false in
  let hb_thread =
    Thread.create
      (fun () ->
        let period = max 0.01 (ttl /. 3.) in
        let beat lease =
          match
            P.parse_heartbeat_reply
              (roundtrip !hb_fd (P.heartbeat ~worker:wid ~lease:(Some lease)))
          with
          | (_ : bool) -> true
          | exception
              ( Wire.Closed | Wire.Protocol_error _ | P.Decode_error _
              | Unix.Unix_error (_, _, _) ) ->
              if Atomic.get hb_stop then false
              else begin
                (try Unix.close !hb_fd with Unix.Unix_error (_, _, _) -> ());
                match cfg.connect () with
                | fd ->
                    hb_fd := fd;
                    true (* renewal resumes on the next period *)
                | exception _ -> false
              end
        in
        let ok = ref true in
        while !ok && not (Atomic.get hb_stop) do
          Thread.delay period;
          match Atomic.get current_lease with
          | Some lease when not (Atomic.get hb_stop) ->
              if not (beat lease) then begin
                ok := false;
                if not (Atomic.get hb_stop) then Atomic.set hb_failed true
              end
          | Some _ | None -> ()
        done)
      ()
  in
  let shards = ref 0 and cases = ref 0 and failures = ref 0 and stale_acks = ref 0 in
  let finish () =
    Atomic.set hb_stop true;
    (try Wire.write ctl (P.detach ~worker:wid) with _ -> ());
    (try ignore (Wire.read ctl : Ftb_service.Json.t) with _ -> ());
    (try Unix.close ctl with Unix.Unix_error (_, _, _) -> ());
    (* Closing the heartbeat fd unblocks a thread waiting on a reply; if
       the thread swapped in a fresh descriptor while reconnecting, that
       one is closed after the join (and only that one — fd numbers are
       reused, so a blind double close could hit an unrelated socket). *)
    let hb_fd0 = !hb_fd in
    (try Unix.close hb_fd0 with Unix.Unix_error (_, _, _) -> ());
    (try Thread.join hb_thread with _ -> ());
    if !hb_fd <> hb_fd0 then
      (try Unix.close !hb_fd with Unix.Unix_error (_, _, _) -> ());
    { shards = !shards; cases = !cases; failures = !failures; stale_acks = !stale_acks }
  in
  try
    while not (cfg.stop ()) && not (Atomic.get hb_failed) do
      match P.parse_lease_reply (roundtrip ctl (P.lease ~worker:wid)) with
      | P.Wait poll -> Thread.delay poll
      | P.Granted g ->
          Atomic.set current_lease (Some g.P.lease_id);
          let payload =
            try
              let golden = golden_for cfg g.P.bench in
              if Checkpoint.fingerprint_of_golden golden <> g.P.fingerprint then
                P.Failed
                  (Printf.sprintf
                     "golden fingerprint mismatch for %S (worker binary diverges from daemon)"
                     g.P.bench)
              else
                let work =
                  match g.P.cases with
                  | None -> Shard.Range { lo = g.P.lo; hi = g.P.hi }
                  | Some cases -> Shard.Cases cases
                in
                let data = Shard.run ?pool ?fuel:g.P.fuel g.P.model golden work in
                (* The tamper hook models a silently-corrupt worker (chaos
                   drills): corruption happens before the digest, exactly
                   like bad RAM upstream of the hash, so the frame-layer
                   check passes and only audit re-execution can catch it. *)
                let data =
                  match cfg.tamper with
                  | None -> data
                  | Some f -> f ~bench:g.P.bench ~shard:g.P.shard data
                in
                (* The scheduler never grants a shard whose blob could
                   outgrow a frame; the guard stays as a typed refusal on
                   the sending end, so a frame the transport bound would
                   kill mid-connection is never emitted. *)
                if not (P.result_fits ~cases:(Bytes.length data)) then
                  P.Failed
                    (Printf.sprintf "shard %d result would exceed Wire.max_frame" g.P.shard)
                else
                  P.Blob
                    {
                      data;
                      digest =
                        P.outcome_digest ~job:g.P.job_id ~shard:g.P.shard ~lo:g.P.lo
                          ~hi:g.P.hi ~fingerprint:g.P.fingerprint data;
                    }
            with e -> P.Failed (Printexc.to_string e)
          in
          (* A typed server-side rejection (bad_result / digest_mismatch /
             bad_request) surfaces as [Decode_error]: the shard is counted
             as failed and the pull loop continues — the daemon's retry
             machinery owns the shard, so crashing the whole worker over
             one rejected frame would only shrink the fleet. Transport
             loss still propagates to the handlers below. *)
          let ack =
            match
              P.parse_result_ack
                (roundtrip ctl
                   (P.result ~worker:wid ~job:g.P.job_id ~lease:g.P.lease_id
                      ~shard:g.P.shard payload))
            with
            | ack -> Ok ack
            | exception P.Decode_error msg -> Error msg
          in
          Atomic.set current_lease None;
          (match ack with
          | Ok ack ->
              (match payload with
              | P.Blob _ ->
                  incr shards;
                  cases := !cases + (g.P.hi - g.P.lo)
              | P.Failed msg ->
                  incr failures;
                  logf cfg "worker %d: shard %d failed: %s" wid g.P.shard msg);
              if ack.P.stale then begin
                incr stale_acks;
                logf cfg "worker %d: shard %d result was stale (lease expired elsewhere)"
                  wid g.P.shard
              end
          | Error msg ->
              incr failures;
              logf cfg "worker %d: shard %d result rejected by daemon: %s" wid
                g.P.shard msg)
    done;
    if Atomic.get hb_failed then
      logf cfg
        "worker %d stopping: heartbeat channel lost (lease renewal impossible)"
        wid
    else logf cfg "worker %d stopping" wid;
    finish ()
  with
  | Wire.Closed ->
      logf cfg "worker %d: daemon closed the connection" wid;
      finish ()
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      logf cfg "worker %d: connection lost" wid;
      finish ()
  | P.Decode_error msg ->
      (* A typed rejection of a lease poll means the daemon no longer
         serves this worker at all (quarantined, or its registration was
         pruned) — exit cleanly with stats rather than crash; the operator
         sees why via [ftb workers]. *)
      logf cfg "worker %d stopping: daemon refused lease: %s" wid msg;
      finish ()
  | e ->
      ignore (finish () : stats);
      raise e

(* ------------------------------------------------------------------ *)
(* Endpoint plumbing for the CLI verb. *)

type endpoint = Unix_socket of string | Tcp of string * int

let endpoint_of_addr addr =
  match String.rindex_opt addr ':' with
  | Some i when not (String.contains addr '/') ->
      let host = String.sub addr 0 i in
      let port = String.sub addr (i + 1) (String.length addr - i - 1) in
      (match int_of_string_opt port with
      | Some port when port > 0 && host <> "" -> Tcp (host, port)
      | Some _ | None -> Unix_socket addr)
  | Some _ | None -> Unix_socket addr

let connect_endpoint = function
  | Unix_socket path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with e -> (try Unix.close fd with _ -> ()); raise e);
      fd
  | Tcp (host, port) ->
      let addr =
        match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
        | { Unix.ai_addr; _ } :: _ -> ai_addr
        | [] -> invalid_arg (Printf.sprintf "cannot resolve %s:%d" host port)
      in
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      (try Unix.connect fd addr
       with e -> (try Unix.close fd with _ -> ()); raise e);
      fd
