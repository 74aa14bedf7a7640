(** Statistical regression detection between two benchmark runs.

    The paper's whole argument is that SimBench {e pinpoints} regressions
    that application-suite averages hide (Figures 2, 5 and 8): a
    per-benchmark collapse — mcf falling off a cliff between two QEMU
    releases — disappears inside the SPEC geometric mean.  This module
    loads two serialized runs (see {!Baseline}), pairs their measurement
    cells, decides {e with statistical confidence} which cells regressed,
    and attributes each shift to the mechanism category the affected
    benchmarks isolate.

    Significance is noise-aware: the reported time of a cell is the
    minimum across repeats, but the decision uses the {e full} sample
    vector — a pair only counts as regressed/improved when (a) the
    relative change of the reported time clears a minimum-effect
    threshold (default 5%, absorbing the documented ±5-10% host jitter on
    sub-10ms cells) {e and} (b) the t-based 95% confidence intervals of
    the two sample sets do not overlap.  Pairs where either side has
    fewer than two samples are not classified at all: with a degenerate
    (point or nan) interval there is no noise estimate, so they are
    reported as skipped (insufficient samples).  Cells whose status
    records a harness failure ("failed"/"timeout"/"quarantined") are
    likewise skipped with a note instead of compared. *)

type run = { source : string; cells : (string * Sb_report.Experiments.row) list }
(** A serialized run: its cells, each paired with its experiment of
    origin, as read back from [--json] output or a snapshot
    ({!Baseline}).  Cell status: ["ok"] and ["retried <n>"] are compared
    normally, a terminal harness failure (["failed"]/["timeout"]/
    ["quarantined"]) is skipped. *)

val default_threshold : float
(** [0.05]: a 5% minimum effect. *)

type verdict = Regressed | Improved | Unchanged

(** Why a pair got its verdict. *)
type note =
  | Confirmed  (** over threshold and confidence intervals disjoint *)
  | Below_threshold
  | Within_noise  (** over threshold, but the intervals overlap *)

type comparison = {
  c_old : Sb_report.Experiments.row;
  c_new : Sb_report.Experiments.row;
  c_delta : float;  (** relative change of the reported (min) seconds *)
  c_ci_old : float * float;
  c_ci_new : float * float;
  c_verdict : verdict;
  c_note : note;
  c_insns_changed : bool;
      (** retired kernel instruction counts differ — a deterministic,
          noise-free signal that guest-visible behaviour changed *)
}

val classify :
  threshold:float ->
  old_cell:Sb_report.Experiments.row ->
  new_cell:Sb_report.Experiments.row ->
  comparison

type report = {
  r_threshold : float;
  r_old_source : string;
  r_new_source : string;
  r_engine_remap : (string * string) option;
      (** set when the runs had disjoint single-engine labels and cells
          were paired by (arch, cell) across the rename — the old-vs-new
          engine-version scenario of Figures 2/6 *)
  r_pairs : comparison list;
  r_only_old : Sb_report.Experiments.row list;
  r_only_new : Sb_report.Experiments.row list;
  r_mismatched : (Sb_report.Experiments.row * Sb_report.Experiments.row) list;
      (** paired cells whose iteration counts differ: not comparable *)
  r_skipped_status :
    (Sb_report.Experiments.row * Sb_report.Experiments.row) list;
      (** pairs where at least one side is a harness failure
          (status "failed"/"timeout"/"quarantined"): skipped with a note *)
  r_skipped_samples :
    (Sb_report.Experiments.row * Sb_report.Experiments.row) list;
      (** pairs where a side has fewer than two samples: no noise
          estimate, so no verdict is pretended *)
}

val compare_runs :
  ?threshold:float ->
  ?ignore_engine:bool ->
  old_run:run ->
  new_run:run ->
  unit ->
  report
(** Pairs cells by (engine, arch, cell) — duplicates across experiments
    (shared memoized sweep cells) are collapsed to their first occurrence.
    With [ignore_engine:true] the engine label is dropped from the key
    (used with {!Baseline.filter_engine} to compare two engine
    configurations out of the same sweep).  If strict pairing matches
    nothing and each run holds exactly one distinct engine, the engines
    are treated as renamed ([r_engine_remap]). *)

val regressions : report -> comparison list

val exit_code : strict:bool -> report -> int
(** [1] when [strict] and at least one confirmed regression, else [0]. *)

val category_of_cell : string -> string
(** Benchmark/workload name to SimBench category name ({!Simbench.Category});
    SPEC-analog workloads map to "Application", unknown cells to "Other". *)

type category_summary = {
  cat_name : string;
  cat_cells : int;
  cat_regressed : int;
  cat_improved : int;
  cat_geomean_ratio : float;  (** geomean of new/old reported seconds *)
}

val attribution : report -> category_summary list
(** Per-category roll-up of every paired cell, in first-seen order. *)

val render : ?all_cells:bool -> report -> string
(** Human-readable diff: changed cells (all cells with [all_cells:true])
    as a {!Sb_util.Tablefmt} table, regressions first, then the category
    attribution, a list of status-skipped cells with their statuses, and
    a summary line including skip counts. *)

val to_json : report -> Sb_util.Json.t
(** Machine-readable report ([simbench compare --json]). *)
