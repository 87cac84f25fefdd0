module Pool = Ftb_inject.Parallel.Pool

let run ?pool ?fuel model golden ~lo ~hi =
  let buf = Bytes.create (hi - lo) in
  let work a b =
    Ftb_inject.Executor.range_into_model ?fuel model golden ~lo:(lo + a) ~hi:(lo + b) buf
      ~off:a
  in
  (match pool with None -> work 0 (hi - lo) | Some pool -> Pool.run pool ~total:(hi - lo) work);
  buf

let check ~lo ~hi blob =
  if Bytes.length blob <> hi - lo then
    Error (Printf.sprintf "%d outcome bytes; expected %d" (Bytes.length blob) (hi - lo))
  else if Bytes.exists (fun c -> c > '\005') blob then
    Error "an outcome byte is outside '\\000'..'\\005'"
  else Ok ()
