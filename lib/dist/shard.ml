module Pool = Ftb_inject.Parallel.Pool

(* The range is claimed in site pieces: over a pool, a chunk bound that
   cut a site would make both chunks pay for it. *)
let run ?pool ?fuel model golden ~lo ~hi =
  let buf = Bytes.create (hi - lo) in
  let pieces = Ftb_inject.Executor.site_pieces model ~lo ~hi in
  Pool.each pool ~total:(Array.length pieces) (fun i ->
      let a, b = pieces.(i) in
      Ftb_inject.Executor.range_into_model ?fuel model golden ~lo:a ~hi:b buf ~off:(a - lo));
  buf

let check ~lo ~hi blob =
  if Bytes.length blob <> hi - lo then
    Error (Printf.sprintf "%d outcome bytes; expected %d" (Bytes.length blob) (hi - lo))
  else if Bytes.exists (fun c -> c > '\005') blob then
    Error "an outcome byte is outside '\\000'..'\\005'"
  else Ok ()
