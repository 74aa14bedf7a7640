(** Plain-text table and series rendering for experiment reports.

    The bench harness prints each paper table/figure as an aligned ASCII
    table (for tabular data) or as a set of labelled series (for the
    line-graph figures). *)

type align = Left | Right

val render :
  ?align:align list ->
  header:string list ->
  string list list ->
  string
(** [render ~header rows] lays out an aligned table with a rule under the
    header.  [align] defaults to left for the first column and right for the
    rest. *)

val render_series :
  x_label:string ->
  x_values:string list ->
  (string * float list) list ->
  string
(** [render_series ~x_label ~x_values series] prints one row per x value and
    one column per named series — the textual equivalent of the paper's line
    graphs (Figures 2, 6, 8).  Series shorter than [x_values] are padded with
    [nan], rendered as ["-"]. *)

val sci_cell : float -> string
(** Scientific notation as used by the density columns of Figure 3. *)
