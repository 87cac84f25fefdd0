(** Bit-exact binary codec for sampled propagation experiments.

    The durable form of an adaptive campaign's {!Sample_run.t} values:
    the adaptive round log frames one blob per round. All float fields
    are stored as raw IEEE-754 images, so a resumed campaign's samples
    fold into the *exact* boundary the uninterrupted run infers —
    byte-identity is the contract, not an optimization. The outcome byte
    reuses the {!Ground_truth} encoding ('\000'..'\005', crash taxonomy
    included).

    Propagation is stored sparse, as {!Sample_run.t} holds it: a masked
    sample carries one (site, deviation) pair per site it deviated at, 12
    bytes each, under the magic [ftbS2]. A blob of the retired dense
    layout [ftbS1] is a {!Format_error} naming that magic. *)

exception Format_error of string
(** Structural corruption: bad magic, truncation, out-of-range fields,
    trailing bytes. Callers follow the store convention — quarantine the
    blob, never crash. *)

val encode : Sample_run.t array -> string
(** Serialize samples in order. [decode (encode s)] reproduces [s] with
    bit-identical floats. *)

val encoded_size : Sample_run.t array -> int
(** [String.length (encode samples)], computed without encoding. *)

val write : Sample_run.t array -> Bytes.t -> pos:int -> int
(** [write samples b ~pos] writes [encode samples] into [b] at [pos] and
    returns the position after it, so a caller can frame a blob without
    copying it. [b] must have {!encoded_size} bytes free at [pos]. *)

val decode : string -> Sample_run.t array
(** Parse a blob; raises {!Format_error} on any structural defect,
    including a sample count or pair count the remaining bytes cannot
    hold (checked before anything is allocated for it), propagation
    sites that do not ascend strictly, and a deviation that is zero,
    negative or NaN. Sites are not checked against a program's site
    count, which the blob does not carry: callers that know it do. *)

val validate :
  Models.spec -> sites:int -> ?cases:int array -> Sample_run.t array -> (unit, string) result
(** Check decoded samples against the campaign they are meant for, the
    one check every reader of durable samples runs before a fold: each sample's (site, bit) lies in the model's case space over
    [sites], its propagation names no site [>= sites], and, given the
    granted [cases], there is one sample per case, in grant order. The
    error names the first offending sample. *)
