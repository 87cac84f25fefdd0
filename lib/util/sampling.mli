(** Sampling strategies used by the campaigns.

    The paper's default strategy is uniform random sampling without
    replacement over all (site, bit) cases; the adaptive method (§3.4)
    biases site selection with probability [p_i ∝ 1/S_i] where [S_i] is the
    information already available at site [i]. *)

val uniform : Rng.t -> n:int -> k:int -> int array
(** [uniform rng ~n ~k] draws [k] distinct indices from [\[0, n)]
    uniformly. Alias of {!Rng.sample_without_replacement}. *)

(** {1 Weighted sampling without replacement}

    Efraimidis-Spirakis: item [i] of weight [w_i > 0] gets the key
    [-ln(u_i) / w_i] for one uniform draw [u_i] in (0, 1], and the [k]
    items with the smallest keys, ties broken by the smaller item, are a
    weighted sample without replacement, in key order. A {!reservoir}
    runs this over a stream in O(k) memory: items are offered in runs
    that share a weight, each item with one RNG draw, and no array of
    the stream is ever built.

    Once the reservoir is full, an item whose draw puts its key well
    above the current maximum key [K] ([u < 0.999·exp(-K·w)]) is
    rejected without computing [ln u]. The margin, [-ln 0.999 ≈ 1e-3] in
    [K·w], is orders of magnitude above the rounding error of the key,
    so the result, and the RNG state after it, are exactly those of
    sorting every key. *)

type reservoir
(** The [k] best (key, item) pairs offered so far. *)

val reservoir : k:int -> weights:float array -> reservoir
(** An empty reservoir for a sample of [k] items. [weights] holds one
    weight per group: an item offered with [~group:g] has weight
    [weights.(g)] (read when it is offered, so the caller may update the
    array between offers). Raises [Invalid_argument] on a negative [k]. *)

val offer : reservoir -> Rng.t -> group:int -> int array -> len:int -> unit
(** [offer r rng ~group items ~len] offers [items.(0)], ...,
    [items.(len - 1)] in that order, each of weight [weights.(group)]: a
    run of items that share a weight, such as one site's cases. A
    positive weight draws one RNG value per item (exactly one, whatever
    happens next); a zero weight draws none and its items are never
    selected. Allocates nothing. Raises [Invalid_argument] on a negative
    or NaN weight. *)

val drawn : reservoir -> int array
(** The selected items in key order: [k] of them, or every item offered
    with a positive weight when there were fewer. *)

val weighted_without_replacement : Rng.t -> weights:float array -> k:int -> int array
(** [weighted_without_replacement rng ~weights ~k] draws [k] distinct
    indices with probability proportional to [weights]: the indices
    offered in ascending order to a {!reservoir}, so one uniform draw per
    positive weight, in index order. Zero-weight indices are never
    selected; fewer than [k] positive weights, a [k] outside [\[0, n\]],
    or a negative or NaN weight raise [Invalid_argument] before anything
    is drawn. *)

val inverse_information_weights : info:float array -> float array
(** [inverse_information_weights ~info] is the paper's bias term: weight
    [1 / max(info_i, 1)] for each site, so sites with little injection or
    propagation information are favoured. Raises on negative or NaN
    entries. *)

val stratified_indices : n:int -> strata:int -> (int * int) array
(** [stratified_indices ~n ~strata] splits [\[0, n)] into [strata]
    near-equal contiguous ranges, returned as [(start, stop_exclusive)]
    pairs — the grouping used by Figure 4's per-region averages. *)
