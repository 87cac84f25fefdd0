(** Per-site information mass — Figure 4's "potential impact" and the bias
    term of the adaptive sampler (§3.4).

    A site accumulates information when a sample injects a *significant*
    error at it (relative error above {!significant_rel}) or when a masked
    sample's corruption propagates to it with a significant deviation. *)

type t = {
  injected : float array;  (** significant injections per site *)
  propagated : float array;  (** significant propagated deviations per site *)
}

val significant_rel : float
(** The paper's significance cut-off: [1e-8] relative error. *)

val is_significant : golden_value:float -> float -> bool
(** [is_significant ~golden_value e] — is an absolute deviation [e] at a
    site whose golden value is [golden_value] above the relative cut-off?
    The reference magnitude is floored at 1e-16 so zero-valued sites don't
    make denormal-sized deviations look significant. *)

val collect : Ftb_trace.Golden.t -> Ftb_inject.Sample_run.t array -> t
(** Tally both information kinds over a sample set. *)

val total : t -> float array
(** [injected + propagated] per site — the [S_i] of the §3.4 bias term. *)

val significance_floors : Ftb_trace.Golden.t -> float array
(** Per site, the deviation a significant one must exceed:
    [is_significant ~golden_value e] is [e > (significance_floors g).(j)]
    for [golden_value] the golden value of site [j], bit for bit. *)

val add_total : floors:float array -> float array -> Ftb_inject.Sample_run.t -> unit
(** [add_total ~floors s sample] adds one sample's information to the
    per-site totals [s] in place, [floors] being
    [significance_floors golden]. Folding every sample of a set this way
    gives exactly [total (collect golden samples)]: the counts are integer
    sums, so the order of addition does not matter. *)

val potential_impact : t -> float array
(** Alias of {!total}: the quantity plotted in Figure 4's second row. *)
