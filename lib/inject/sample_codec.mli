(** Bit-exact binary codec for sampled propagation experiments.

    The distributed adaptive planner ships a round's drawn cases to fleet
    workers and gets {!Sample_run.t} values back; this codec is the wire
    and checkpoint format for those samples. All float fields travel as
    raw IEEE-754 images, so a blob encoded on a worker decodes to samples
    that fold into the *exact* boundary the serial oracle infers —
    byte-identity is the contract, not an optimization. The outcome byte
    reuses the {!Ground_truth} encoding ('\000'..'\005', crash taxonomy
    included). Framed in the adaptive round log, these blobs are also the
    durable form of samples.

    Propagation travels sparse, as {!Sample_run.t} holds it: a masked
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
    one check every reader of remote or durable samples runs before a
    fold: each sample's (site, bit) lies in the model's case space over
    [sites], its propagation names no site [>= sites], and, given the
    granted [cases], there is one sample per case, in grant order. The
    error names the first offending sample. *)

val encoded_size_upper_bound : sites:int -> int
(** Worst-case encoded bytes of one sample of a program with [sites]
    dynamic instructions — the planner's conservative shard-sizing input
    (a masked sample can carry a (site, deviation) pair per site). *)
