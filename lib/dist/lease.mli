(** Lease table for one wave of campaign shards.

    A pure state machine: each shard of the wave moves
    [Pending -> Leased -> Done] (with [Leased -> Pending] on expiry,
    holder release, or re-lease after death), the caller supplies every
    timestamp, and no locks or I/O live here — {!Fleet} drives it under
    its own mutex, and the property tests drive it with randomized
    worker-death interleavings.

    The invariant the distributed merge rests on: {!commit} returns
    [`Committed] {b exactly once per shard}, no matter how leases are
    acquired, expired, renewed, released or raced. Outcome bytes enter
    the campaign only on that answer, so a shard's byte range is written
    exactly once even when a SIGKILLed worker's result arrives after the
    shard was re-leased and finished elsewhere. *)

type t

type grant = { lease_id : int; shard : int; lo : int; hi : int }

val create : ?first_lease:int -> (int * int * int) array -> t
(** [create tasks] with [tasks = (shard, lo, hi)] array, all [Pending].
    [first_lease] seeds the lease-id counter; {!Fleet} threads it across
    waves so a stale id from a previous wave can never alias a live one.
    Raises [Invalid_argument] on duplicate shard indices. *)

val next_lease : t -> int
(** First lease id this table has not issued yet. *)

val outstanding : t -> int
(** Shards not yet [Done]. The wave is finished at [0]. *)

val bounds : t -> shard:int -> (int * int) option

val acquire : ?max_cases:int -> t -> holder:int -> now:float -> ttl:float -> grant option
(** Lease the first [Pending] shard of at most [max_cases] cases to
    [holder] with deadline [now +. ttl]. Workers pass [max_cases] (their
    results must fit a wire frame); the local holder takes any shard.
    [None] when nothing is leasable. *)

val holder : t -> shard:int -> int option
(** Holder of the shard's current lease; [None] when it is pending, done
    or not in this wave. *)

val next_deadline : t -> float
(** Earliest deadline among the current leases ([infinity] when none is
    finite): the next moment {!expire} can reclaim anything. *)

val renew : t -> lease_id:int -> now:float -> ttl:float -> bool
(** Heartbeat: push the deadline of a live lease. [false] when the lease
    is no longer current (expired, superseded, or the shard is done). *)

val expire : t -> now:float -> int
(** Return every lease with [deadline < now] to [Pending]; the count of
    reclaimed shards. *)

val release_holder : t -> holder:int -> int
(** Return every lease held by [holder] to [Pending] (worker detach). *)

val commit : t -> shard:int -> [ `Committed | `Stale | `Unknown ]
(** Record a successful result for [shard]. [`Committed] exactly once per
    shard — only then may the caller write the result bytes. [`Stale]
    when the shard is already done; [`Unknown] when the shard is not in
    this wave (a frame from a previous wave or a confused worker). *)

val fail : t -> lease_id:int -> message:string -> [ `Committed | `Stale ]
(** Record a worker-reported failure. Counts only when [lease_id] is
    still the shard's current lease ([`Committed]: the shard becomes
    [Done (Error message)] and the engine's retry machinery takes over);
    anything else is [`Stale] and ignored. *)

val results : t -> (int * (unit, string) result) list
(** Per-shard results; call once {!outstanding} is [0]. *)
