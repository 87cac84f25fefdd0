(** Multicore campaign execution (OCaml 5 domains).

    A fault-injection campaign is embarrassingly parallel: every case is an
    independent re-execution of the program against immutable inputs. This
    module provides a persistent domain {!Pool} with a work-stealing
    scheduler; [Executor.ground_truth_model] and the campaign engine run
    on it. It requires the program body to be re-entrant — true of every
    kernel in this repository (bodies allocate fresh working state per run
    and only read their captured inputs), and a requirement documented on
    {!Ftb_trace.Program.t}'s [body].

    Determinism: results are identical to serial runs — each case's
    execution is self-contained and every worker writes disjoint output
    slots, so scheduling cannot change outcomes. *)

val default_domains : unit -> int
(** Default campaign width. Precedence:
    + the [FTB_DOMAINS] environment variable, when set and non-empty (must
      be a positive integer; anything else raises [Invalid_argument]; an
      empty value behaves as unset);
    + otherwise [Domain.recommended_domain_count ()] capped to 8 — campaign
      sharding saturates memory bandwidth well before high core counts.

    CLI [--domains] flags override both (they bypass this function). *)

(** Persistent worker domains with atomic-counter work stealing.

    Spawning a domain costs far more than a typical injection case, so the
    pool spawns its workers once and keeps them alive across campaign
    calls; idle workers block on a condition variable. Work is distributed
    dynamically: participants claim fixed-size chunks of the item range
    off a shared atomic counter, so cheap items (cases that crash
    immediately) and expensive items (fuel-bound divergent runs) balance
    without static partitioning. *)
module Pool : sig
  type t

  val create : domains:int -> t
  (** Spawn a pool with [domains - 1] worker domains (the submitting
      domain is the remaining participant). Raises [Invalid_argument] when
      [domains <= 0]. *)

  val domains : t -> int
  (** Total parallelism: worker domains + the submitting domain. *)

  val run : ?chunk:int -> ?participants:int -> t -> total:int -> (int -> int -> unit) -> unit
  (** [run t ~total work] executes [work lo hi] over disjoint chunks
      covering [0, total), on up to [participants] domains (default: all
      of them; capped to [domains t]). The calling domain participates and
      the call returns only after all chunks have run. [chunk] overrides
      the claimed-chunk size (default: scaled to [total/participants], at
      most 1024). If any invocation of [work] raises, remaining chunks are
      abandoned and the first exception observed is re-raised after all
      participants have quiesced. Not re-entrant: raises
      [Invalid_argument] if the pool is already running a job or has been
      shut down. *)

  val each : ?participants:int -> t option -> total:int -> (int -> unit) -> unit
  (** [each pool ~total f] runs [f i] for every [i] in [0, total): off
      [pool] one item per claim ([run ~chunk:1], so items of uneven cost
      balance to the last one), or in order on the calling domain when
      [pool] is [None]. Exceptions as for {!run}. *)

  val shutdown : t -> unit
  (** Stop and join all worker domains. Blocks until any in-flight job
      has completed. Idempotent. *)

  val global : ?domains:int -> unit -> t
  (** The process-wide shared pool, created on first use and reused by
      every subsequent call ([at_exit] joins it). Grows in place (extra
      workers are spawned into the same pool, so previously obtained
      handles remain valid) when asked for more domains than it currently
      has; never shrinks — use [run ~participants] to run narrower jobs.
      [domains] defaults to {!default_domains}. *)
end
