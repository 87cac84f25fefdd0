module Golden = Ftb_trace.Golden
module Runner = Ftb_trace.Runner
module Fault = Ftb_trace.Fault
module Sample_run = Ftb_inject.Sample_run

let wave ?(width = 72) ?(height = 12) golden (prop : Runner.propagation) =
  let buf = Buffer.create 2048 in
  let fault = prop.Runner.result.Runner.fault in
  Buffer.add_string buf
    (Printf.sprintf
       "propagation of %s (outcome %s, injected error %.3g, output error %.3g)\n"
       (Fault.to_string fault)
       (Runner.outcome_to_string prop.Runner.result.Runner.outcome)
       prop.Runner.result.Runner.injected_error prop.Runner.result.Runner.output_error);
  let n = Array.length prop.Runner.deviations in
  if n = 0 then begin
    Buffer.add_string buf "  (no coverage: the run diverged immediately)\n";
    Buffer.contents buf
  end
  else begin
    (* Column c aggregates the max deviation of its site range; log scale. *)
    let log_of d = if d <= 0. then neg_infinity else log10 d in
    let columns =
      Array.init width (fun c ->
          let start = c * n / width and stop = max (((c + 1) * n) / width) ((c * n / width) + 1) in
          let stop = min stop n in
          let best = ref 0. in
          for i = start to stop - 1 do
            if Float.is_finite prop.Runner.deviations.(i) then
              best := Float.max !best prop.Runner.deviations.(i)
            else best := Float.max !best 1e308
          done;
          log_of !best)
    in
    let finite = Array.to_list columns |> List.filter Float.is_finite in
    let lo = List.fold_left Float.min infinity finite in
    let hi = List.fold_left Float.max neg_infinity finite in
    let lo, hi = if lo >= hi then (lo -. 1., lo +. 1.) else (lo, hi) in
    for row = height - 1 downto 0 do
      let level = lo +. ((hi -. lo) *. float_of_int row /. float_of_int (height - 1)) in
      Buffer.add_string buf (Printf.sprintf "  1e%+06.1f |" level);
      Array.iter
        (fun v ->
          if Float.is_finite v && v >= level -. ((hi -. lo) /. float_of_int (height - 1) /. 2.)
          then Buffer.add_char buf '#'
          else Buffer.add_char buf ' ')
        columns;
      Buffer.add_char buf '\n'
    done;
    Buffer.add_string buf (Printf.sprintf "  %8s +%s\n" "" (String.make width '-'));
    (* Phase strip: first letter of each column's dominant phase. *)
    Buffer.add_string buf (Printf.sprintf "  %8s  " "");
    for c = 0 to width - 1 do
      let site = prop.Runner.start + (c * n / width) in
      let phase = Golden.phase_of_site golden site in
      let letter =
        match String.rindex_opt phase '.' with
        | Some i when i + 1 < String.length phase -> phase.[i + 1]
        | _ -> if phase = "" then '?' else phase.[0]
      in
      Buffer.add_char buf letter
    done;
    Buffer.add_char buf '\n';
    Buffer.add_string buf
      (Printf.sprintf "  sites %d..%d; phase strip shows each column's phase initial\n"
         prop.Runner.start (prop.Runner.stop - 1));
    Buffer.contents buf
  end

type matrix = {
  phases : string array;
  counts : int array array;
  injections : int array;
}

let phase_matrix golden samples =
  let phase_index = Hashtbl.create 16 in
  let order = ref [] in
  let index_of phase =
    match Hashtbl.find_opt phase_index phase with
    | Some i -> i
    | None ->
        let i = Hashtbl.length phase_index in
        Hashtbl.add phase_index phase i;
        order := phase :: !order;
        i
  in
  (* Register phases in site order for a stable layout. *)
  for site = 0 to Golden.sites golden - 1 do
    ignore (index_of (Golden.phase_of_site golden site))
  done;
  let k = Hashtbl.length phase_index in
  let counts = Array.make_matrix k k 0 in
  let injections = Array.make k 0 in
  Array.iter
    (fun (s : Sample_run.t) ->
      let source = index_of (Golden.phase_of_site golden s.Sample_run.fault.Fault.site) in
      injections.(source) <- injections.(source) + 1;
      match s.Sample_run.propagation with
      | None -> ()
      | Some (sites, deviations) ->
          Array.iteri
            (fun i site ->
              if
                site <> s.Sample_run.fault.Fault.site
                && Ftb_core.Info.is_significant ~golden_value:(Golden.value golden site)
                     deviations.(i)
              then begin
                let dest = index_of (Golden.phase_of_site golden site) in
                counts.(source).(dest) <- counts.(source).(dest) + 1
              end)
            sites)
    samples;
  { phases = Array.of_list (List.rev !order); counts; injections }

let render_matrix m =
  let k = Array.length m.phases in
  let table =
    Ftb_util.Table.create
      ([ "from \\ to" ] @ Array.to_list m.phases @ [ "injections" ])
  in
  for i = 0 to k - 1 do
    Ftb_util.Table.add_row table
      ([ m.phases.(i) ]
      @ List.init k (fun j -> string_of_int m.counts.(i).(j))
      @ [ string_of_int m.injections.(i) ])
  done;
  Ftb_util.Table.render
    ~title:"Propagation matrix: significant deviations by source and destination phase"
    table
