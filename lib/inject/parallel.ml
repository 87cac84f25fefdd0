let default_domains () = Ftb_util.Domains.default ()

let check_domains domains =
  if domains <= 0 then invalid_arg "Parallel: domains must be positive"

(* ------------------------------------------------------------------ *)
(* Persistent domain pool with a work-stealing scheduler.

   Domains are spawned once and kept alive across campaign calls; idle
   workers block on a condition variable. A job is a half-open range
   [0, total) of abstract work items; workers (and the submitting domain,
   which always participates) claim chunks off a shared [Atomic] counter,
   so short items (crash cases that die instantly) and long items
   (fuel-exhausted cases that run to the budget) balance automatically —
   no domain is stuck with an unlucky static chunk. *)
module Pool = struct
  type job = {
    work : int -> int -> unit;
    next : int Atomic.t;
    total : int;
    chunk : int;
    worker_slots : int;  (** how many pool workers participate in this job *)
  }

  type t = {
    mutable workers : unit Domain.t array;
    mutex : Mutex.t;
    work_ready : Condition.t;
    work_done : Condition.t;
    mutable job : job option;
    mutable generation : int;
    mutable active : int;  (** participating workers still running the job *)
    mutable failed : exn option;
    mutable stop : bool;
    mutable busy : bool;  (** a [run] is in flight (submitting domain included) *)
  }

  let domains t = Array.length t.workers + 1

  let note_failure t e =
    Mutex.lock t.mutex;
    if t.failed = None then t.failed <- Some e;
    Mutex.unlock t.mutex

  (* Claim chunks until the counter runs dry. After any participant fails,
     remaining chunks are abandoned so the job drains quickly; the racy
     read of [t.failed] is harmless (worst case: one extra chunk runs). *)
  let run_chunks t (job : job) =
    let rec go () =
      if t.failed = None then begin
        let lo = Atomic.fetch_and_add job.next job.chunk in
        if lo < job.total then begin
          job.work lo (min job.total (lo + job.chunk));
          go ()
        end
      end
    in
    go ()

  let rec worker_loop t id last_generation =
    Mutex.lock t.mutex;
    while (not t.stop) && t.generation = last_generation do
      Condition.wait t.work_ready t.mutex
    done;
    if t.stop then Mutex.unlock t.mutex
    else begin
      let generation = t.generation in
      match t.job with
      | None ->
          (* Stale wakeup: this generation's job already completed without
             us. That happens to workers with [id >= worker_slots] — [run]
             only waits for the participating workers before clearing
             [t.job], so a non-participant woken by the broadcast can
             acquire the mutex after the fact. Catch up and wait for the
             next job. *)
          Mutex.unlock t.mutex;
          worker_loop t id generation
      | Some job ->
          Mutex.unlock t.mutex;
          if id < job.worker_slots then begin
            (try run_chunks t job with e -> note_failure t e);
            Mutex.lock t.mutex;
            t.active <- t.active - 1;
            if t.active = 0 then Condition.broadcast t.work_done;
            Mutex.unlock t.mutex
          end;
          worker_loop t id generation
    end

  let create ~domains =
    check_domains domains;
    let t =
      {
        workers = [||];
        mutex = Mutex.create ();
        work_ready = Condition.create ();
        work_done = Condition.create ();
        job = None;
        generation = 0;
        active = 0;
        failed = None;
        stop = false;
        busy = false;
      }
    in
    t.workers <-
      Array.init (domains - 1) (fun id -> Domain.spawn (fun () -> worker_loop t id 0));
    t

  let shutdown t =
    Mutex.lock t.mutex;
    (* Never tear down a pool mid-job: wait for the in-flight [run] (which
       broadcasts [work_done] once it clears [busy]) to finish first. *)
    while t.busy do
      Condition.wait t.work_done t.mutex
    done;
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.workers;
    t.workers <- [||]

  (* Spawn additional workers into a live pool, preserving every
     outstanding handle to it. New workers start waiting on the current
     generation, so growth is safe even while a job is in flight: they
     only pick up jobs submitted after the growth. *)
  let grow t ~domains:want =
    check_domains want;
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.grow: pool is shut down"
    end;
    let have = Array.length t.workers + 1 in
    if want > have then begin
      let generation = t.generation in
      let extra =
        Array.init (want - have) (fun i ->
            let id = have - 1 + i in
            Domain.spawn (fun () -> worker_loop t id generation))
      in
      t.workers <- Array.append t.workers extra
    end;
    Mutex.unlock t.mutex

  (* Chunks small enough that uneven per-item cost balances, large enough
     that the atomic claim is amortized. *)
  let default_chunk ~total ~participants =
    max 1 (min 1024 (total / (participants * 16)))

  let run ?chunk ?participants t ~total work =
    if total < 0 then invalid_arg "Pool.run: negative total";
    if total > 0 then begin
      let participants =
        match participants with
        | None -> domains t
        | Some p ->
            check_domains p;
            min p (domains t)
      in
      let chunk =
        match chunk with
        | Some c -> if c <= 0 then invalid_arg "Pool.run: chunk must be positive" else c
        | None -> default_chunk ~total ~participants
      in
      let job =
        { work; next = Atomic.make 0; total; chunk; worker_slots = participants - 1 }
      in
      Mutex.lock t.mutex;
      if t.stop then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool.run: pool is shut down"
      end;
      if t.busy then begin
        Mutex.unlock t.mutex;
        invalid_arg "Pool.run: pool is already running a job"
      end;
      t.busy <- true;
      t.failed <- None;
      t.job <- Some job;
      t.active <- job.worker_slots;
      t.generation <- t.generation + 1;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      (* The submitting domain is a participant too. *)
      (try run_chunks t job with e -> note_failure t e);
      Mutex.lock t.mutex;
      while t.active > 0 do
        Condition.wait t.work_done t.mutex
      done;
      t.job <- None;
      t.busy <- false;
      (* Wake anyone (e.g. [shutdown]) waiting for the pool to go idle. *)
      Condition.broadcast t.work_done;
      let failed = t.failed in
      t.failed <- None;
      Mutex.unlock t.mutex;
      match failed with Some e -> raise e | None -> ()
    end

  let each ?participants pool ~total f =
    let items lo hi =
      for i = lo to hi - 1 do
        f i
      done
    in
    match pool with
    | None -> items 0 total
    | Some t -> run ?participants ~chunk:1 t ~total items

  (* The shared persistent pool: spawned on first use, kept alive for the
     process, grown in place (never shrunk, never respawned — previously
     obtained handles stay valid) when a caller asks for more domains. *)
  let global_pool : t option ref = ref None
  let global_mutex = Mutex.create ()

  let global ?domains:requested () =
    let want =
      match requested with
      | Some d ->
          check_domains d;
          d
      | None -> default_domains ()
    in
    Mutex.lock global_mutex;
    let pool =
      match !global_pool with
      | Some p ->
          if domains p < want then grow p ~domains:want;
          p
      | None ->
          let p = create ~domains:want in
          global_pool := Some p;
          at_exit (fun () ->
              Mutex.lock global_mutex;
              (match !global_pool with Some p -> shutdown p | None -> ());
              global_pool := None;
              Mutex.unlock global_mutex);
          p
    in
    Mutex.unlock global_mutex;
    pool
end
