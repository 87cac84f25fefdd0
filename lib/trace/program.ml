type prefix_outcome = Completed of float array | Paused of (Ctx.t -> float array)

type cone_outcome = Cone_masked | Cone_sdc | Cone_crash of Ctx.crash_reason

type cone_plan = {
  cone_sites : int;
  cone_case : site:int -> ((float -> float) -> cone_outcome) option;
  cone_lanes : site:int -> ((int -> float -> float) -> cone_outcome array -> unit) option;
}

type t = {
  name : string;
  description : string;
  tolerance : float;
  statics : Static.table;
  body : Ctx.t -> float array;
  resumable : (Ctx.t -> stop_at:int -> prefix_outcome) option;
  cone : (unit -> cone_plan option) option;
}

let make ?resumable ?cone ~name ~description ~tolerance ~statics body =
  if not (Ftb_util.Bits.is_finite tolerance) || tolerance <= 0. then
    invalid_arg "Program.make: tolerance must be positive and finite";
  { name; description; tolerance; statics; body; resumable; cone }

let with_cone t cone = { t with cone = Some cone }
