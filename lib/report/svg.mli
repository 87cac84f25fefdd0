(** Standalone SVG renderings of the paper's figures.

    The ASCII rasters in {!Ascii} are for terminals; this module writes
    real, self-contained SVG documents (no external CSS/JS) for reports:
    multi-series line charts for Figure 4/5-style data and bar charts for
    Figure 3's histograms. Coordinates are computed in plot space with
    margins for axes and legends; every chart is deterministic — same data,
    same bytes. *)

type series = { label : string; color : string; values : float array }
(** One line of a chart. [color] is any SVG colour ("#1f77b4", "crimson"). *)

val line_chart :
  ?width:int ->
  ?height:int ->
  ?x_label:string ->
  ?y_label:string ->
  title:string ->
  series list ->
  string
(** Render equal-length series as polylines with axes, ticks and a legend.
    Series of different lengths are rejected with [Invalid_argument]; an
    empty series list yields an "empty" placeholder chart. Non-finite
    values break the polyline (the point is skipped). Default canvas
    900×420. *)

val histogram_chart :
  ?width:int ->
  ?height:int ->
  ?log_scale:bool ->
  title:string ->
  Ftb_util.Histogram.t ->
  string
(** Render a histogram as vertical bars ([log_scale] applies log10(1+n) to
    bar heights, default true, matching Figure 3's wide count range). *)

val save : path:string -> string -> unit
(** Write an SVG document to a file. *)
