(** Loading and snapshotting serialized benchmark runs.

    Cells are read and written by the one bench-cell codec,
    {!Sb_report.Experiments.row_of_json} and
    {!Sb_report.Experiments.row_to_json}, inside the run envelope of
    {!Sb_report.Experiments.run_to_json}.  Two on-disk shapes are
    understood, both schema-tagged so old files (which lack the raw
    per-repeat samples) are rejected with a clear message instead of
    mis-decoded:

    - a {e run directory}: the [BENCH_<experiment>.json] files written by
      [bench/main.exe --json DIR] (schema
      {!Sb_report.Experiments.bench_schema}; schema-2 files, whose cells
      have no [status], are still accepted and read as status ["ok"]);
    - a {e snapshot}: one self-contained file merging every cell of a run,
      each cell naming its experiment (schema ["simbench-baseline-1"]), written
      by [simbench baseline] and the thing you check in as a CI baseline
      (see [bench/baseline/]). *)

val of_cells :
  source:string ->
  experiment:string ->
  Sb_util.Json.t list ->
  (Regress.run, string) result
(** Decode bench cells (for example a serve daemon's dump); [experiment]
    is the default for cells that do not name one.  Errors name [source],
    the cell and the field. *)

val load_bench_file : string -> (Regress.run, string) result
(** One [BENCH_*.json] file; rejects files that are neither the current
    bench schema nor the schema-2 back-compat shape. *)

val load : string -> (Regress.run, string) result
(** Directory: every [BENCH_*.json] in it, sorted by file name (an error
    if there are none).  File: accepted as either a snapshot or a single
    bench file, keyed on its ["schema"] field. *)

val filter_engine : Regress.run -> string -> Regress.run
(** Keep only the cells of one engine label (pair with
    [Regress.compare_runs ~ignore_engine:true]). *)

val write_snapshot : out:string -> Regress.run -> unit
(** Serialize as a snapshot, creating parent directories as needed. *)
