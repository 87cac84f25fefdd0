module Pool = Ftb_inject.Parallel.Pool
module Sample_run = Ftb_inject.Sample_run
module Sample_codec = Ftb_inject.Sample_codec

type t = Range of { lo : int; hi : int } | Cases of int array

let of_wave cases ~lo ~hi =
  match cases with
  | None -> Range { lo; hi }
  | Some cases -> Cases (Array.sub cases lo (hi - lo))

(* [work a b] covers items [a, b) of [n]; the pool claims chunks of it. *)
let split pool ~n work =
  match pool with None -> work 0 n | Some pool -> Pool.run pool ~total:n work

let run ?pool ?fuel model golden = function
  | Range { lo; hi } ->
      let buf = Bytes.create (hi - lo) in
      split pool ~n:(hi - lo) (fun a b ->
          Ftb_inject.Executor.range_into_model ?fuel model golden ~lo:(lo + a)
            ~hi:(lo + b) buf ~off:a);
      buf
  | Cases cases ->
      let out = Array.make (Array.length cases) None in
      split pool ~n:(Array.length cases) (fun a b ->
          for i = a to b - 1 do
            out.(i) <- Some (Sample_run.run_case_model ?fuel model golden cases.(i))
          done);
      Bytes.of_string (Sample_codec.encode (Array.map Option.get out))

let check model ~sites shard blob =
  match shard with
  | Range { lo; hi } ->
      if Bytes.length blob <> hi - lo then
        Error (Printf.sprintf "%d outcome bytes; expected %d" (Bytes.length blob) (hi - lo))
      else if Bytes.exists (fun c -> c > '\005') blob then
        Error "an outcome byte is outside '\\000'..'\\005'"
      else Ok ()
  | Cases cases -> (
      match Sample_codec.decode (Bytes.to_string blob) with
      | exception Sample_codec.Format_error msg -> Error ("samples blob is corrupt: " ^ msg)
      | samples -> Sample_codec.validate model ~sites ~cases samples)
