(** Aligned text tables and CSV output for the experiment reports. *)

type align = Left | Right | Center

type t
(** A table under construction: a header row plus data rows. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table. [aligns] defaults to [Left] for the
    first column and [Right] for the rest (the usual shape for a metrics
    table). If provided, [aligns] must match the header width. *)

val add_row : t -> string list -> unit
(** Append a row; raises [Invalid_argument] if its width differs from the
    header's. *)

val render : ?title:string -> t -> string
(** Render with box-drawing rules, column padding and an optional title
    line. Always ends with a newline. *)

val to_markdown : t -> string
(** GitHub-flavoured markdown table (pipes escaped in cells). Alignment
    hints follow the table's column alignments. *)

val to_csv : t -> string
(** RFC-4180-ish CSV of header + rows (quotes fields containing commas,
    quotes or newlines). *)

val save_csv : dir:string -> name:string -> t -> string
(** [save_csv ~dir ~name t] writes [t] as [dir/name.csv], creating [dir] if
    needed, and returns the path. *)
