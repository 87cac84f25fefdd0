(** Alternative transient-fault models.

    The paper evaluates the canonical single-bit-flip model in 64-bit data
    (§2.1) and notes that real upsets also hit narrower datapaths and can
    span multiple bits. This module parameterises campaigns by fault model
    so a user can measure how sensitive a program's SDC profile is to the
    model assumption. Discrete models enumerate a fixed number of cases
    per site (like the 64 flips); stochastic models draw each case's
    corruption from an RNG seeded by the case ({!case_corrupt}). *)

type t =
  | Bit_flip_64  (** the paper's model: one of 64 bit flips *)
  | Bit_flip_32
      (** a flip in the value rounded to single precision (32 cases) —
          models FP32 datapaths *)
  | Adjacent_burst_2
      (** two adjacent bits flipped together (63 cases) — a minimal
          multi-bit upset *)
  | Random_value of { lo : float; hi : float }
      (** the corrupted element is replaced by a uniform draw from
          [\[lo, hi)] — the "random value" model of several FI tools *)

val name : t -> string
val all_discrete : t list
(** [Bit_flip_64; Bit_flip_32; Adjacent_burst_2]. *)

val cases_per_site : t -> int option
(** Number of enumerable corruptions per site; [None] for stochastic
    models. *)

val is_stochastic : t -> bool
(** [true] iff {!cases_per_site} is [None]. *)

val stochastic_width : int
(** Dense case-space width assigned to stochastic models so the campaign
    pipeline (shards, checkpoints, fleet leases) can enumerate them: 64
    replicas per site, matching the paper's model budget. *)

val width : t -> int
(** [cases_per_site] for discrete models, {!stochastic_width} for
    stochastic ones: the number of dense campaign cases per site. *)

type spec = { model : t; seed : int }
(** A fault model as a campaign parameter. [seed] feeds the
    deterministic per-case RNG derivation of stochastic models and is
    ignored by discrete ones. *)

val default_spec : spec
(** The paper's model: [{ model = Bit_flip_64; seed = 0 }]. *)

val spec_width : spec -> int
val total_cases : spec -> sites:int -> int
(** Dense campaign case count: [sites * spec_width spec]. *)

val model_equal : t -> t -> bool

val spec_equal : spec -> spec -> bool
(** Structural equality; the seed only participates for stochastic
    models (discrete corruption never reads it). *)

val spec_name : spec -> string
(** Human-readable name, including the seed for stochastic models. *)

val case_corrupt : spec -> case:int -> float -> float
(** [case_corrupt spec ~case] is the corruption applied by the dense
    campaign case [case] (site [case / spec_width], local case
    [case mod spec_width]). Total and deterministic: stochastic models
    draw from a fresh RNG seeded with [spec.seed lxor case], so the
    value is independent of evaluation order, shard boundaries, daemon
    restarts and fleet re-leases. *)

val spec_to_string : spec -> string
(** Single-token (space-free) encoding, safe inside space-split
    checkpoint headers; floats round-trip exactly via [%h]. *)

val spec_of_string : string -> (spec, string) result
(** Inverse of {!spec_to_string}; also accepts decimal floats and an
    omitted seed (default 0) in [random-value:LO:HI[:SEED]]. *)
