(** Content-addressed on-disk profile store: a typed view over
    {!Ftb_inject.Cas} with the {!Profile} codec.

    Entries live at [<root>/<k0k1>/<key>], each a {!Profile} payload in
    the CRC32 integrity envelope, written atomically. The substrate owns
    the layout, the entry scan, gc and the quarantine policy: an entry
    that fails the envelope check, no longer parses, or does not carry
    the key it is filed under is moved to the shard's [quarantine/]
    sibling and reported as a miss. The next campaign re-executes the
    section and {!put} rebuilds the entry, so a corrupt cache entry can
    cost a re-execution, never a wrong byte. What this module adds is the
    per-kind and provenance counters of {!stats} and the provenance
    purge {!invalidate_worker}. *)

type t

val open_ : root:string -> t
(** Open (creating [root] if needed). *)

val root : t -> string

val find : t -> key:string -> Profile.t option
(** Look a profile up by content key. [None] on miss or on a corrupt /
    mis-keyed entry (which is quarantined as a side effect). *)

val put : t -> Profile.t -> unit
(** Insert or overwrite, atomically, under the profile's own key. *)

val path_of_key : t -> string -> string
(** Where a key lives (exposed for tests that corrupt entries). *)

type stats = {
  entries : int;  (** live entries *)
  bytes : int;  (** their total on-disk size *)
  sections : int;  (** entries that are section profiles *)
  boundaries : int;  (** entries that are boundary profiles *)
  quarantined : int;  (** files preserved in quarantine/ dirs *)
  unaudited : int;  (** entries whose provenance is not trusted
                        ({!Profile.prov_trusted}) *)
}

val stats : t -> stats

val invalidate : t -> prefix:string -> int
(** Delete every entry whose key starts with [prefix] (the empty prefix
    empties the store); returns the number deleted. *)

val invalidate_worker : t -> worker:string -> int
(** Delete every entry whose provenance names [worker] — audited entries
    included (the operator purging a quarantined worker owns the
    blast-radius call; a rebuild is always safe). Returns the number
    deleted. *)

val gc : t -> keep:int -> int
(** Keep the [keep] most-recently-written entries, delete the rest;
    returns the number deleted. *)
