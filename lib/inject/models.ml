module Bits = Ftb_util.Bits
module Rng = Ftb_util.Rng

type t =
  | Bit_flip_64
  | Bit_flip_32
  | Adjacent_burst_2
  | Random_value of { lo : float; hi : float }

let name = function
  | Bit_flip_64 -> "bit-flip-64"
  | Bit_flip_32 -> "bit-flip-32"
  | Adjacent_burst_2 -> "adjacent-burst-2"
  | Random_value { lo; hi } -> Printf.sprintf "random-value[%g,%g)" lo hi

let all_discrete = [ Bit_flip_64; Bit_flip_32; Adjacent_burst_2 ]

let cases_per_site = function
  | Bit_flip_64 -> Some 64
  | Bit_flip_32 -> Some 32
  | Adjacent_burst_2 -> Some 63
  | Random_value _ -> None

let is_stochastic model = cases_per_site model = None

(* Stochastic models have no natural case count, but the campaign
   pipeline needs a dense, enumerable case space for shards, checkpoints
   and fleet leases. They get the same budget as the paper's model: 64
   replicas per site, each with its own deterministically derived RNG. *)
let stochastic_width = 64

let width model =
  match cases_per_site model with Some n -> n | None -> stochastic_width

type spec = { model : t; seed : int }

let default_spec = { model = Bit_flip_64; seed = 0 }
let spec_width spec = width spec.model
let total_cases spec ~sites = sites * spec_width spec

let model_equal a b =
  match (a, b) with
  | Bit_flip_64, Bit_flip_64 | Bit_flip_32, Bit_flip_32 | Adjacent_burst_2, Adjacent_burst_2
    ->
      true
  | Random_value a, Random_value b -> a.lo = b.lo && a.hi = b.hi
  | (Bit_flip_64 | Bit_flip_32 | Adjacent_burst_2 | Random_value _), _ -> false

let spec_equal a b =
  model_equal a.model b.model && ((not (is_stochastic a.model)) || a.seed = b.seed)

let spec_name spec =
  if is_stochastic spec.model then
    Printf.sprintf "%s seed %d" (name spec.model) spec.seed
  else name spec.model

let case_corrupt spec ~case =
  if case < 0 then invalid_arg "Models.case_corrupt: negative case";
  let local = case mod spec_width spec in
  match spec.model with
  | Bit_flip_64 -> Bits.flip ~bit:local
  | Bit_flip_32 -> Bits.flip32 ~bit:local
  | Adjacent_burst_2 -> fun v -> Bits.flip ~bit:local (Bits.flip ~bit:(local + 1) v)
  | Random_value { lo; hi } ->
      if hi <= lo then invalid_arg "Models.case_corrupt: empty random-value range";
      (* Derived from the dense case index, not from site-order state:
         any shard, worker or resumed daemon replaying this case draws
         the same value. *)
      fun _ -> lo +. Rng.float (Rng.create ~seed:(spec.seed lxor case)) (hi -. lo)

let spec_to_string spec =
  match spec.model with
  | Bit_flip_64 -> "bit-flip-64"
  | Bit_flip_32 -> "bit-flip-32"
  | Adjacent_burst_2 -> "adjacent-burst-2"
  | Random_value { lo; hi } ->
      (* %h round-trips exactly through float_of_string, and hex floats
         contain no ':' or whitespace, so the encoding stays a single
         space-free token (checkpoint headers are space-split). *)
      Printf.sprintf "random-value:%h:%h:%d" lo hi spec.seed

let spec_of_string s =
  let fail () =
    Error
      (Printf.sprintf
         "unknown fault model %S (expected bit-flip-64, bit-flip-32, adjacent-burst-2 or \
          random-value:LO:HI[:SEED])"
         s)
  in
  match s with
  | "bit-flip-64" -> Ok { model = Bit_flip_64; seed = 0 }
  | "bit-flip-32" -> Ok { model = Bit_flip_32; seed = 0 }
  | "adjacent-burst-2" -> Ok { model = Adjacent_burst_2; seed = 0 }
  | _ -> (
      match String.split_on_char ':' s with
      | "random-value" :: lo :: hi :: rest -> (
          match
            let lo = float_of_string lo and hi = float_of_string hi in
            let seed =
              match rest with
              | [] -> 0
              | [ seed ] -> int_of_string seed
              | _ -> failwith "extra fields"
            in
            if not (Float.is_finite lo && Float.is_finite hi && hi > lo) then
              failwith "bad range";
            { model = Random_value { lo; hi }; seed }
          with
          | spec -> Ok spec
          | exception _ -> fail ())
      | _ -> fail ())
