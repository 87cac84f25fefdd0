(** Bit-level manipulation of IEEE-754 floating point values.

    The fault model of the paper is a single bit flip in one data element of
    one dynamic instruction. This module provides the flip itself, the
    resulting error magnitude, and helpers to reason about the 64 (or 32)
    possible flips of a value. Bits are indexed from 0 (least significant
    mantissa bit) to 62 (highest exponent bit) and 63 (sign bit). *)

val bits_per_double : int
(** Number of flippable bits in a double: 64. *)

val flip : bit:int -> float -> float
(** [flip ~bit x] returns [x] with bit [bit] of its IEEE-754 double
    representation inverted. Raises [Invalid_argument] unless
    [0 <= bit < 64]. The result may be NaN or infinite. *)

val flip32 : bit:int -> float -> float
(** [flip32 ~bit x] models a flip in a 32-bit float: [x] is rounded to
    single precision, bit [bit] (0..31) of that representation is flipped,
    and the result is widened back to double. *)

val error_of_flip : bit:int -> float -> float
(** [error_of_flip ~bit x] is [abs_float (flip ~bit x -. x)], the injected
    error magnitude of the flip. [nan] if the flip produces NaN, [infinity]
    if it produces an infinite value. *)

val all_flip_errors : float -> (int * float) array
(** [all_flip_errors x] lists [(bit, error_of_flip ~bit x)] for every bit of
    the double representation, in increasing bit order. *)

val is_finite : float -> bool
(** [is_finite x] is true iff [x] is neither NaN nor infinite. *)

val sign_bit : int
(** Index of the sign bit (63). *)

val classify_bit : int -> [ `Mantissa | `Exponent | `Sign ]
(** [classify_bit b] tells which field of the double layout bit [b] lives
    in. Raises [Invalid_argument] for out-of-range bits. *)

val ulp_distance : float -> float -> int64
(** [ulp_distance a b] is the number of representable doubles between [a]
    and [b] (order-theoretic distance of their ordered integer images).
    Useful for tests asserting "almost equal" at bit level. *)
