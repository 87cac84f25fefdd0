(** Deterministic pseudo-random number generation (SplitMix64).

    Every stochastic component of the library (Monte-Carlo campaigns,
    adaptive sampling, trial repetition) draws from an explicit [Rng.t] so
    experiments are reproducible from a single integer seed. SplitMix64 is
    small, fast, passes BigCrush, and supports cheap stream splitting. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator from a 63-bit seed. *)

val copy : t -> t
(** Independent copy of the current state. *)

val state : t -> int64
(** Raw generator state, for checkpointing. [of_state (state t)] resumes
    the stream exactly where [t] left off. *)

val of_state : int64 -> t
(** Rebuild a generator from a checkpointed [state]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The next 53 random bits, in [\[0, 2{^53})]: the draw behind
    {!float}, [float t x = float_of_int (bits53 t) *. 0x1.0p-53 *. x].
    It allocates nothing, where {!float}'s result is boxed across a
    module boundary, so hot loops draw through it. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Raises [Invalid_argument] if
    [n <= 0]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> n:int -> k:int -> int array
(** [sample_without_replacement t ~n ~k] draws [k] distinct indices from
    [\[0, n)], in random order. Raises [Invalid_argument] if [k > n] or
    either is negative. Uses a partial Fisher-Yates for [k] close to [n]
    and rejection hashing for sparse draws. *)
