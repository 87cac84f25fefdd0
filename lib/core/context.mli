(** Shared per-benchmark experiment context.

    Every study needs the golden run, and most need the exhaustive
    ground-truth campaign for evaluation. The context is computed once per
    benchmark and shared across all studies of a harness invocation — the
    campaign is by far the most expensive step. *)

type t = {
  name : string;
  program : Ftb_trace.Program.t;
  golden : Ftb_trace.Golden.t;
  ground_truth : Ftb_inject.Ground_truth.t;
}

val prepare : name:string -> Ftb_trace.Program.t -> t
(** Run the golden run and the exhaustive bit-flip-64 campaign
    ([Executor.ground_truth_model] on the default domain pool). *)

val golden_sdc_ratio : t -> float
val sites : t -> int
val cases : t -> int
