let bits_per_double = 64

let flip ~bit x =
  if bit < 0 || bit >= 64 then
    invalid_arg (Printf.sprintf "Bits.flip: bit %d out of range" bit);
  let image = Int64.bits_of_float x in
  Int64.float_of_bits (Int64.logxor image (Int64.shift_left 1L bit))

let flip32 ~bit x =
  if bit < 0 || bit >= 32 then
    invalid_arg (Printf.sprintf "Bits.flip32: bit %d out of range" bit);
  let image = Int32.bits_of_float x in
  Int32.float_of_bits (Int32.logxor image (Int32.shift_left 1l bit))

let is_finite x = Float.is_finite x

let error_of_flip ~bit x =
  let x' = flip ~bit x in
  if Float.is_nan x' then nan
  else if Float.is_nan x then nan
  else abs_float (x' -. x)

let all_flip_errors x =
  Array.init bits_per_double (fun bit -> (bit, error_of_flip ~bit x))

let sign_bit = 63

let classify_bit b =
  if b < 0 || b >= 64 then
    invalid_arg (Printf.sprintf "Bits.classify_bit: bit %d out of range" b)
  else if b <= 51 then `Mantissa
  else if b <= 62 then `Exponent
  else `Sign

(* Map a double onto a sign-magnitude-ordered int64 so that ULP distance is
   a plain subtraction. Standard trick: negative floats are mirrored. *)
let ordered_image x =
  let i = Int64.bits_of_float x in
  if Int64.compare i 0L < 0 then Int64.sub Int64.min_int i else i

let ulp_distance a b =
  let ia = ordered_image a and ib = ordered_image b in
  Int64.abs (Int64.sub ia ib)
