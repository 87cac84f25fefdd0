(** Content-addressed store of enveloped blobs.

    The one durable-bytes substrate under both caches (the compose
    profile store and the boundary store): each is a typed view that
    brings its own codec and keeps nothing else of the plumbing.

    Layout: [<root>/<k0k1>/<key>], where [key] is a lowercase hex content
    key and [k0k1] its first two characters, so directories stay small
    under heavy traffic. Every entry is a payload in the CRC32 integrity
    envelope ({!Persist.save_enveloped}), written atomically. A corrupt
    entry moves to its shard's [quarantine/] sibling, where {!stats}
    counts it.

    Corruption policy is quarantine-and-rebuild: {!find} reports an entry
    that fails the envelope check, does not decode, or does not carry the
    key it is filed under as a miss, and quarantines it as evidence. A
    corrupt entry can cost a re-execution, never a wrong byte. *)

type t

val open_ : root:string -> t
(** Open (creating [root] if needed). *)

val root : t -> string

val path_of_key : t -> string -> string
(** Where a key lives. Raises [Invalid_argument] on a key shorter than
    two characters. *)

val find :
  t -> key:string -> decode:(path:string -> string -> 'a) -> key_of:('a -> string) -> 'a option
(** Verified lookup. [decode ~path payload] parses an envelope-verified
    payload, raising {!Persist.Format_error} on any malformation; the
    decoded value must carry [key] ([key_of]). [None] on a miss, a
    non-hex key, or an entry that fails any of these checks (which is
    quarantined). *)

val put : t -> key:string -> (Buffer.t -> unit) -> unit
(** Write an entry under [key], atomically, replacing any earlier one. *)

val read : decode:(path:string -> string -> 'a) -> string -> 'a option
(** Read-only verify and decode of one entry file, for bulk passes: [None]
    on any failure, and nothing is quarantined ({!find} owns that
    policy). *)

val scan : t -> decode:(path:string -> string -> 'a) -> (string * 'a option) list
(** Every live entry's path (quarantined files excluded) with its
    {!read} decode. *)

val remove_if : t -> (string -> bool) -> int
(** Delete every live entry whose path satisfies the predicate; returns
    the number deleted. *)

val mtime : string -> float option
(** An entry file's modification time, [None] when it is gone. *)

val gc : ?date:(string -> float option) -> t -> keep:int -> int
(** Keep the [keep] newest entries by [date] (default {!mtime}) and
    delete the rest; entries [date] cannot date are left alone. Returns
    the number deleted. Raises [Invalid_argument] on negative [keep]. *)

type stats = {
  entries : int;  (** live entries *)
  bytes : int;  (** their total on-disk size *)
  quarantined : int;  (** files preserved in quarantine/ dirs *)
}

val stats : t -> stats
