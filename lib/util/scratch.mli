(** Per-domain scratch state, lent to one run at a time.

    Hot loops keep reusable buffers per domain so they allocate nothing
    per case. A domain can run several systhreads, though, and they
    interleave on it: a daemon's scheduler thread and an in-process fleet
    worker, or a job the stuck-job watchdog gave up on and the job after
    it. Two runs sharing one buffer would corrupt each other's results.
    So each run takes a value off its domain's free list (making one when
    the list is empty) and puts it back when it ends. One thread per
    domain, the common case, reuses a single value forever. *)

type 'a t

val create : (unit -> 'a) -> 'a t
(** A pool of values made by the given function on demand. *)

val with_ : 'a t -> ('a -> 'b) -> 'b
(** [with_ t f] runs [f] on a value no other run holds, and returns the
    value to the calling domain's free list when [f] returns or raises. *)
