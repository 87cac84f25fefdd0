(** Unified content fingerprinting.

    Every durable content hash in the tree — the campaign checkpoint's
    golden-trace fingerprint and the compositional profile cache's section
    and boundary keys — is produced by this module, so there is exactly one
    encoding to test and one place where it could change. All fingerprints
    are 32-character lowercase hex digests.

    The float encoding is {e bit-exact}: each value contributes the 8
    little-endian bytes of its [Int64.bits_of_float] image. Two float
    arrays fingerprint equal iff they are bitwise equal element-wise —
    [0.0] and [-0.0] differ, NaN payloads matter. Persisted campaign
    checkpoints (v2/v3) store [of_floats] of the golden values, so this
    encoding is part of the on-disk format and must never change. *)

val of_string : string -> string
(** Fingerprint of the raw bytes of a string. *)

val of_floats : float array -> string
(** Bit-exact fingerprint of a float array (little-endian
    [Int64.bits_of_float] per element). *)

val add_float : Buffer.t -> float -> unit
(** Append a float's 8-byte bit-exact image to a buffer being accumulated
    for {!of_buffer}. *)

val of_buffer : Buffer.t -> string
(** Fingerprint of a buffer's current contents. *)

val hex_length : int
(** Length of every fingerprint: 32. *)

val is_hex : string -> bool
(** Whether a string is shaped like a fingerprint (32 lowercase hex
    chars) — used to vet untrusted store filenames. *)
