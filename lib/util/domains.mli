(** Domain-count selection shared by every executable entry point.

    One place owns the [FTB_DOMAINS] environment contract: an explicit
    [--domains] flag wins, then a well-formed [FTB_DOMAINS] value, then
    [Domain.recommended_domain_count] capped at 8. CLI binaries
    ([ftb campaign run], [ftb serve], [ftb worker], the benches) all call
    {!default_or_exit} so a malformed value is a single uniform exit-2
    usage error instead of a backtrace — or a per-binary copy of the same
    [match]. *)

val default : unit -> int
(** Domain count from [FTB_DOMAINS], falling back to
    [min 8 (Domain.recommended_domain_count ())] (explicit settings may
    exceed the cap). Raises
    [Invalid_argument] when the variable is set but not a positive
    integer. *)

val default_or_exit : ?flag:int -> unit -> int
(** CLI wrapper: [flag] (a parsed [--domains] value) wins when positive;
    otherwise defer to {!default}. Invalid input — a non-positive flag or
    a malformed [FTB_DOMAINS] — prints a one-line usage error to stderr
    and exits with status 2. *)
