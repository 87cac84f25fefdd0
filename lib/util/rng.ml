(* The 64-bit state as two 32-bit halves in immediate fields, rather than
   a [mutable int64] field: storing an [int64] in a record field boxes
   it, once per draw. The halves are joined and split with unboxed
   [Int64] operations, so a draw allocates nothing, and a generator is an
   ordinary small record (a [Bytes] state would cost a C call to create,
   once per case for the random-value model). *)
type t = { mutable hi : int; mutable lo : int }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] get t = Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let[@inline] set t s =
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int s land 0xFFFFFFFF

let of_state state =
  let t = { hi = 0; lo = 0 } in
  set t state;
  t

let create ~seed = of_state (mix (Int64.of_int seed))
let copy t = { hi = t.hi; lo = t.lo }
let state t = get t

let[@inline] next t =
  let s = Int64.add (get t) golden_gamma in
  set t s;
  mix s

let next_int64 t = next t
let split t = of_state (mix (next t))
let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. A loop, not a local
     recursive closure, so a draw allocates nothing. *)
  let n64 = Int64.of_int n in
  let limit = Int64.sub (Int64.sub Int64.max_int n64) 1L in
  let result = ref (-1) in
  while !result < 0 do
    let raw = Int64.shift_right_logical (next t) 1 in
    let candidate = Int64.rem raw n64 in
    if not (Int64.sub raw candidate > limit) then result := Int64.to_int candidate
  done;
  !result

(* 53 random mantissa bits -> uniform in [0,1); exact, since they fit. *)
let float t x = float_of_int (bits53 t) *. 0x1.0p-53 *. x
let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t ~n ~k =
  if k < 0 || n < 0 then invalid_arg "Rng.sample_without_replacement: negative size";
  if k > n then invalid_arg "Rng.sample_without_replacement: k > n";
  if 4 * k >= n then begin
    (* Dense draw: partial Fisher-Yates over the full index range. *)
    let all = Array.init n (fun i -> i) in
    for i = 0 to k - 1 do
      let j = i + int t (n - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    Array.sub all 0 k
  end else begin
    (* Sparse draw: rejection against a hash set. *)
    let seen = Hashtbl.create (2 * k) in
    let out = Array.make k 0 in
    let filled = ref 0 in
    while !filled < k do
      let candidate = int t n in
      if not (Hashtbl.mem seen candidate) then begin
        Hashtbl.add seen candidate ();
        out.(!filled) <- candidate;
        incr filled
      end
    done;
    out
  end
