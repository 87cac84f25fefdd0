(* Empirical monotonicity analysis (paper sec. 5).

   The inference method is exact when a program reacts monotonically to
   injected error — f_i(e) <= f_i(e') whenever e <= e'. The paper proves
   this for stencils and matrix products ("f(e) = C*e") and observes that
   LU/CG/FFT are overwhelmingly monotone in practice. This example
   measures it: for every benchmark it runs the exhaustive campaign,
   counts non-monotonic fault sites, and for the provably-linear kernels
   verifies the constant-gain law f(e) = C*e directly.

   Run with:  dune exec examples/monotonicity.exe *)

module Gt = Ftb_inject.Ground_truth
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault
module Suite = Ftb_kernels.Suite

let stencil = lazy (Suite.program (Suite.stencil ~size:8 ~sweeps:4 ~seed:3 ~tolerance:1e-4))
let matvec = lazy (Suite.program (Suite.matvec ~n:12 ~reps:3 ~seed:5 ~tolerance:1e-3))

let check_linear_gain name program ~site =
  let golden = Ftb_trace.Golden.run program in
  (* Sweep mantissa bits: each flip injects a different error e; for a
     linear kernel output_error / e must be one constant C. *)
  let gains = ref [] in
  for bit = 30 to 45 do
    let r = Runner.run_outcome golden (Fault.make ~site ~bit) in
    if Float.is_finite r.Runner.injected_error && r.Runner.injected_error > 0. then begin
      let gain = r.Runner.output_error /. r.Runner.injected_error in
      if Float.is_finite gain && gain > 0. then gains := gain :: !gains
    end
  done;
  let gains = Array.of_list !gains in
  let summary = Ftb_util.Stats.summarize gains in
  Printf.printf
    "  %-8s site %-5d: output_error / injected_error over %d flips: C = %.6f (spread %.2e)\n"
    name site (Array.length gains) summary.Ftb_util.Stats.mean
    (summary.Ftb_util.Stats.max -. summary.Ftb_util.Stats.min);
  summary

let () =
  Printf.printf "1. Linear-gain law f(e) = C*e for provably monotone kernels (sec. 5)\n\n";
  let s1 = check_linear_gain "stencil" (Lazy.force stencil) ~site:10 in
  let s2 = check_linear_gain "matvec" (Lazy.force matvec) ~site:4 in
  let relative_spread s =
    (s.Ftb_util.Stats.max -. s.Ftb_util.Stats.min) /. Float.max s.Ftb_util.Stats.mean 1e-300
  in
  Printf.printf "  constant gain confirmed: relative spreads %.2e and %.2e\n\n"
    (relative_spread s1) (relative_spread s2);

  Printf.printf "2. Non-monotonic site census over the benchmark suite\n\n";
  Printf.printf "  %-8s %10s %16s %14s\n" "program" "sites" "non-monotonic" "fraction";
  List.iter
    (fun (name, config_program) ->
      let program = Lazy.force config_program in
      let golden = Ftb_trace.Golden.run program in
      let gt = Gt.run golden in
      let flags = Ftb_core.Study_exhaustive.non_monotonic_sites gt in
      let bad = Array.fold_left (fun acc f -> if f then acc + 1 else acc) 0 flags in
      Printf.printf "  %-8s %10d %16d %14s\n" name (Array.length flags) bad
        (Ftb_report.Ascii.percent (float_of_int bad /. float_of_int (Array.length flags))))
    [
      ("stencil", stencil);
      ("matvec", matvec);
      ("matmul", lazy (Suite.program (Suite.matmul ~n:8 ~seed:9 ~tolerance:1e-3)));
      ("cg", lazy (Suite.program (Suite.cg ~grid:4 ~iterations:8 ~tolerance:1e-4)));
      ("lu", lazy (Suite.program (Suite.lu ~n:12 ~block:3 ~seed:7 ~tolerance:1e-4)));
      ("fft", lazy (Suite.program (Suite.fft ~n1:8 ~n2:4 ~seed:11 ~tolerance:1.0)));
    ];
  Printf.printf
    "\n\
     A site is non-monotonic when some masked flip injects a larger error than\n\
     some SDC flip at the same site. The boundary's only possible prediction\n\
     errors live at these sites (sec. 3.5), which is why the census above also\n\
     bounds the inference method's inaccuracy.\n"
