(** Growable unboxed buffers (OCaml 5.1 has no [Dynarray]): append-only,
    doubling on overflow, resettable so a loop can reuse one buffer
    instead of allocating a fresh one per run. *)

module Floats : sig
  type t

  val create : unit -> t
  val push : t -> float -> unit
  val length : t -> int

  val get : t -> int -> float
  (** Raises [Invalid_argument] outside [0, length). *)

  val reset : t -> unit
  (** Empty the buffer, keeping its storage. *)

  val contents : t -> float array
  (** A fresh array of the pushed values, in order. *)
end

module Ints : sig
  type t

  val create : unit -> t
  val push : t -> int -> unit
  val length : t -> int

  val get : t -> int -> int
  (** Raises [Invalid_argument] outside [0, length). *)

  val reset : t -> unit
  (** Empty the buffer, keeping its storage. *)

  val contents : t -> int array
  (** A fresh array of the pushed values, in order. *)
end
