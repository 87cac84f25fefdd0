(** Durable bytes: atomic writes, the integrity envelope, quarantine.

    Every durable artifact of a study — campaign checkpoints, cached
    profiles, converged boundaries, job descriptors — is written through
    this module, atomically (temp file + rename), so an interrupted writer
    never leaves a half-written file behind. Each artifact's own codec
    lives with its owner ({!Ftb_campaign.Checkpoint},
    [Ftb_compose.Profile], [Ftb_plan.Boundary_store],
    [Ftb_plan.Round_checkpoint], [Ftb_service.Job]); this module holds
    what they share: the envelope, the verify-or-quarantine load, and the
    field parsers their text headers use.

    There is one readable envelope format, [ftb-envelope-v1]. Bytes
    without its header are a {!Format_error} that names the format token
    they do carry, never unverified payload. *)

exception Format_error of string
(** Raised on corruption, an unsupported format, or metadata that does
    not match what the caller pairs the artifact with. Messages are
    prefixed with the offending path (and line, where there is one). *)

val with_out_atomic : string -> (out_channel -> unit) -> unit
(** [with_out_atomic path f] runs [f] on a channel to [path ^ ".tmp"], then
    atomically renames it over [path]. On exception the temp file is
    removed and [path] is untouched. *)

val mkdir_p : string -> unit
(** Create a directory and its missing parents (an existing directory is
    fine, including one a concurrent writer just made). *)

(** {1 Integrity envelope}

    Atomic writes guarantee a file is never half-written by a clean
    writer, but they cannot defend against what the paper studies: silent
    corruption of durable state after the write (flipped bits, torn
    sectors, hostile edits). The envelope adds that defence — a versioned
    header [ftb-envelope-v1 <payload-bytes> <crc32>] followed by the raw
    payload, verified in full before any payload byte is trusted. CRC32
    detects every single-byte corruption and all burst errors up to 32
    bits, which covers the realistic failure modes of local state files. *)

val crc32 : string -> int
(** CRC-32 (IEEE, reflected) of a byte string, in [0, 0xFFFFFFFF]:
    zlib's [crc32], so [crc32 "123456789" = 0xCBF43926]. Computed eight
    bytes at a time (slicing-by-8, about 1.1 ns a byte), with the values
    of the byte-at-a-time table loop. *)

val crc32_sub : string -> pos:int -> len:int -> int
(** [crc32_sub s ~pos ~len] is [crc32 (String.sub s pos len)] without the
    copy, for checksumming a frame in place. Raises [Invalid_argument]
    when the range is not inside [s]. *)

val save_enveloped : path:string -> (Buffer.t -> unit) -> unit
(** [save_enveloped ~path f] collects [f]'s payload in a buffer, then
    atomically writes header + payload. *)

val load_enveloped : path:string -> string
(** Read a file written by {!save_enveloped}, verify length and checksum,
    and return the payload. Raises {!Format_error} on a length or
    checksum mismatch, or when the file does not start with the envelope
    header (the message names the format token it starts with). *)

val format_token : string -> string
(** The format token a file's bytes announce: the first space- or
    newline-delimited word, looked for inside the payload when the bytes
    are enveloped. At most 64 bytes long. Used to name an unsupported
    format in an error. *)

(** {1 Verify or quarantine} *)

val quarantine : path:string -> string option
(** Move a corrupt artifact into a [quarantine/] directory next to it
    (never overwriting earlier evidence), freeing [path] for a rebuilt
    replacement. Returns the quarantined path, or [None] when [path] does
    not exist or the move failed — quarantine never raises, because
    failing to preserve evidence must not block recovery. *)

val load_or_quarantine : path:string -> (string -> 'a) -> 'a option
(** [load_or_quarantine ~path load] is [Some (load path)]. When [load]
    raises {!Format_error} or [Sys_error], the artifact cannot be trusted:
    it is {!quarantine}d and the result is [None], so the caller rebuilds
    it. A missing [path] is [None] with nothing to quarantine. *)

(** {1 Header fields} *)

val int_field : path:string -> string -> string -> int
(** [int_field ~path what s] parses a decimal integer field, raising
    [Format_error "path: bad <what> field \"s\""] otherwise. *)

val float_field : path:string -> string -> string -> float
(** As {!int_field}, for a float (decimal, hexadecimal [%h], [inf] or
    [nan]). *)
