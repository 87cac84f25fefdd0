module Parallel = Ftb_inject.Parallel
module Executor = Ftb_inject.Executor
module Ground_truth = Ftb_inject.Ground_truth
module Models = Ftb_inject.Models
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner

(* The pooled campaign under the paper's fault model. *)
let pooled ?fuel ~domains g = Executor.ground_truth_model ?fuel ~domains Models.default_spec g

let golden = lazy (Golden.run (Helpers.linear_program ~tolerance:0.5 ()))

let test_parallel_ground_truth_matches_serial () =
  let g = Lazy.force golden in
  let serial = Ground_truth.run g in
  let parallel = pooled ~domains:4 g in
  Alcotest.(check int) "same case count" (Ground_truth.cases serial)
    (Ground_truth.cases parallel);
  for case = 0 to Ground_truth.cases serial - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "case %d identical" case)
      true
      (Runner.outcome_equal (Ground_truth.outcome serial case)
         (Ground_truth.outcome parallel case))
  done

let test_parallel_on_real_kernel () =
  (* A kernel with internal mutable working state must still be re-entrant
     across domains (fresh state per run). *)
  let program =
    Ftb_oracle.Stencil.program
      { Ftb_oracle.Stencil.size = 5; sweeps = 3; seed = 3; tolerance = 1e-4 }
  in
  let g = Golden.run program in
  let serial = Ground_truth.run g in
  let parallel = pooled ~domains:3 g in
  Helpers.check_close ~eps:1e-12 "same sdc ratio" (Ground_truth.sdc_ratio serial)
    (Ground_truth.sdc_ratio parallel);
  Helpers.check_close ~eps:1e-12 "same crash ratio" (Ground_truth.crash_ratio serial)
    (Ground_truth.crash_ratio parallel)

let test_single_domain_falls_back () =
  let g = Lazy.force golden in
  let gt = pooled ~domains:1 g in
  Alcotest.(check int) "full space" (Golden.cases g) (Ground_truth.cases gt)

let test_domains_validated () =
  match pooled ~domains:0 (Lazy.force golden) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "0 domains accepted"

let test_default_domains_positive () =
  Alcotest.(check bool) "at least one domain" true (Parallel.default_domains () >= 1)

let with_ftb_domains value f =
  (* There is no unsetenv in the stdlib; an empty value is documented to
     behave as unset, so restoring to "" is a clean reset. *)
  Unix.putenv "FTB_DOMAINS" value;
  Fun.protect ~finally:(fun () -> Unix.putenv "FTB_DOMAINS" "") f

let test_ftb_domains_env () =
  with_ftb_domains "3" (fun () ->
      Alcotest.(check int) "FTB_DOMAINS wins over the core cap" 3
        (Parallel.default_domains ()));
  with_ftb_domains "12" (fun () ->
      Alcotest.(check int) "FTB_DOMAINS may exceed the 8-cap" 12
        (Parallel.default_domains ()))

let test_ftb_domains_invalid () =
  List.iter
    (fun value ->
      with_ftb_domains value (fun () ->
          match Parallel.default_domains () with
          | exception Invalid_argument _ -> ()
          | d -> Alcotest.fail (Printf.sprintf "FTB_DOMAINS=%S accepted as %d" value d)))
    [ "0"; "-2"; "many"; "3.5" ]

(* --- the persistent pool --- *)

let test_pool_covers_every_item_once () =
  let pool = Parallel.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let total = 10_000 in
      let hits = Array.make total 0 in
      (* Racy increments are safe: ranges claimed off the atomic counter are
         disjoint, so each slot is touched by exactly one domain. *)
      Parallel.Pool.run pool ~total (fun lo hi ->
          for i = lo to hi - 1 do
            hits.(i) <- hits.(i) + 1
          done);
      Alcotest.(check bool) "each item exactly once" true
        (Array.for_all (fun h -> h = 1) hits))

let test_pool_is_reusable () =
  let pool = Parallel.Pool.create ~domains:3 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      Alcotest.(check int) "domains" 3 (Parallel.Pool.domains pool);
      for round = 1 to 5 do
        let sum = Atomic.make 0 in
        Parallel.Pool.run pool ~chunk:7 ~total:round (fun lo hi ->
            for i = lo to hi - 1 do
              ignore (Atomic.fetch_and_add sum i)
            done);
        Alcotest.(check int)
          (Printf.sprintf "round %d" round)
          (round * (round - 1) / 2)
          (Atomic.get sum)
      done)

let test_pool_propagates_exception_and_survives () =
  let exception Boom in
  let pool = Parallel.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      (match
         Parallel.Pool.run pool ~chunk:1 ~total:100 (fun lo _hi ->
             if lo = 50 then raise Boom)
       with
      | exception Boom -> ()
      | () -> Alcotest.fail "job exception swallowed");
      (* The pool must stay usable after a failed job. *)
      let count = Atomic.make 0 in
      Parallel.Pool.run pool ~total:64 (fun lo hi ->
          ignore (Atomic.fetch_and_add count (hi - lo)));
      Alcotest.(check int) "pool alive after failure" 64 (Atomic.get count))

let test_pool_participants_cap () =
  let pool = Parallel.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      let seen = Array.make 128 0 in
      Parallel.Pool.run pool ~participants:1 ~total:128 (fun lo hi ->
          for i = lo to hi - 1 do
            seen.(i) <- seen.(i) + 1
          done);
      Alcotest.(check bool) "participants:1 still covers everything" true
        (Array.for_all (fun h -> h = 1) seen))

let test_pool_narrow_jobs_do_not_kill_workers () =
  (* Regression: a worker left out of a narrow job ([participants] below
     the pool width) could wake after the job had been cleared and die on
     [Option.get None], permanently deadlocking the next full-width job.
     Hammer the narrow/wide alternation to give the stale wakeup every
     chance to fire. *)
  let pool = Parallel.Pool.create ~domains:4 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () ->
      for round = 1 to 200 do
        Parallel.Pool.run pool ~participants:1 ~total:4 (fun _ _ -> ());
        let count = Atomic.make 0 in
        Parallel.Pool.run pool ~total:64 (fun lo hi ->
            ignore (Atomic.fetch_and_add count (hi - lo)));
        Alcotest.(check int)
          (Printf.sprintf "full-width job completes after narrow job %d" round)
          64 (Atomic.get count)
      done)

let test_global_pool_grows_in_place () =
  (* Regression: growing the global pool must not invalidate handles
     obtained before the growth. *)
  let narrow = Parallel.Pool.global ~domains:2 () in
  let before = Parallel.Pool.domains narrow in
  let wide = Parallel.Pool.global ~domains:(before + 1) () in
  Alcotest.(check bool) "growth reuses the same pool" true (narrow == wide);
  Alcotest.(check int) "grew by one worker" (before + 1) (Parallel.Pool.domains narrow);
  let count = Atomic.make 0 in
  Parallel.Pool.run narrow ~total:32 (fun lo hi ->
      ignore (Atomic.fetch_and_add count (hi - lo)));
  Alcotest.(check int) "pre-growth handle still runs jobs" 32 (Atomic.get count)

let test_pool_run_after_shutdown_rejected () =
  let pool = Parallel.Pool.create ~domains:2 in
  Parallel.Pool.shutdown pool;
  Parallel.Pool.shutdown pool;
  (* idempotent *)
  match Parallel.Pool.run pool ~total:10 (fun _ _ -> ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "run on a shut-down pool accepted"

let test_pool_zero_total_is_noop () =
  let pool = Parallel.Pool.create ~domains:2 in
  Fun.protect
    ~finally:(fun () -> Parallel.Pool.shutdown pool)
    (fun () -> Parallel.Pool.run pool ~total:0 (fun _ _ -> Alcotest.fail "work on empty job"))

(* Property: the pooled work-stealing campaign is byte-identical to the
   serial engine for random kernels and fuel budgets. *)
let prop_pooled_ground_truth_identity =
  let gen =
    QCheck.make
      ~print:(fun (k, n, seed, fuel, domains) ->
        Printf.sprintf "kernel %d, n %d, seed %d, fuel %d, domains %d" k n seed fuel domains)
      QCheck.Gen.(
        map
          (fun ((k, n, seed), (fuel, domains)) -> (k, n, seed, fuel, domains))
          (pair
             (triple (int_bound 2) (int_range 2 5) (int_range 0 1000))
             (pair (int_range 0 48) (int_range 2 5))))
  in
  QCheck.Test.make ~name:"pooled ground truth = serial (random kernels)" ~count:20 gen
    (fun (kernel, n, seed, fuel, domains) ->
      let ir =
        match kernel with
        | 0 -> Ftb_ir.Programs.dot ~n ~seed ~tolerance:1e-9
        | 1 -> Ftb_ir.Programs.saxpy ~n ~seed ~tolerance:1e-9
        | _ -> Ftb_ir.Programs.normalize ~n ~seed ~tolerance:1e-9
      in
      let g = Golden.run (Ftb_ir.Ir.to_program ir) in
      let fuel = if fuel = 0 then None else Some fuel in
      let serial = Ground_truth.run ?fuel g in
      let pooled = pooled ~domains ?fuel g in
      Bytes.equal serial.Ground_truth.outcomes pooled.Ground_truth.outcomes)

let suite =
  [
    Alcotest.test_case "parallel ground truth = serial" `Quick
      test_parallel_ground_truth_matches_serial;
    Alcotest.test_case "parallel on real kernel" `Quick test_parallel_on_real_kernel;
    Alcotest.test_case "single domain falls back" `Quick test_single_domain_falls_back;
    Alcotest.test_case "domains validated" `Quick test_domains_validated;
    Alcotest.test_case "default domains positive" `Quick test_default_domains_positive;
    Alcotest.test_case "FTB_DOMAINS overrides the default" `Quick test_ftb_domains_env;
    Alcotest.test_case "FTB_DOMAINS rejects garbage" `Quick test_ftb_domains_invalid;
    Alcotest.test_case "pool covers every item once" `Quick test_pool_covers_every_item_once;
    Alcotest.test_case "pool is reusable" `Quick test_pool_is_reusable;
    Alcotest.test_case "pool propagates exceptions and survives" `Quick
      test_pool_propagates_exception_and_survives;
    Alcotest.test_case "pool participants cap" `Quick test_pool_participants_cap;
    Alcotest.test_case "narrow jobs do not kill workers" `Quick
      test_pool_narrow_jobs_do_not_kill_workers;
    Alcotest.test_case "global pool grows in place" `Quick test_global_pool_grows_in_place;
    Alcotest.test_case "pool run after shutdown rejected" `Quick
      test_pool_run_after_shutdown_rejected;
    Alcotest.test_case "pool zero total is a no-op" `Quick test_pool_zero_total_is_noop;
    QCheck_alcotest.to_alcotest prop_pooled_ground_truth_identity;
  ]
