(** Experiment drivers: one entry point per table/figure of the paper's
    evaluation (see DESIGN.md section 6 for the index).

    Each driver runs the required sweep and renders a plain-text table (for
    the paper's tables) or a labelled series table (for its line graphs).
    Results are memoized per (engine-configuration, architecture, scale), so
    Figures 2, 6 and 8 — which share the QEMU-version sweep — do not re-run
    each other's measurements within a process.

    Independent sweep cells can additionally be farmed out to a
    {!Sb_jobs.Pool} of forked workers ([opts.jobs]) and backed by a
    persistent on-disk {!Sb_jobs.Cache} ([opts.cache_dir]); with the default
    {!sequential} options every measurement runs in-process, in the same
    order as before the pool existed. *)

type config = {
  scale : int;          (** Figure 3 iteration counts are divided by this *)
  workload_iters : int; (** kernel passes per workload run *)
  repeats : int;        (** timing repeats; the minimum is reported *)
  spec_density_iters : int;
  switch_at : Simbench.Checkpoint.point option;
      (** checkpointed fast-forward for every grid cell: run (or restore)
          setup up to this point and start the timed engine there — the
          gem5 [switch_cpus] idiom; see {!Simbench.Harness.run}.  When
          [opts.cache_dir] is set the checkpoints live in the same
          directory as the result cache, so one warm boot is shared by
          every engine column, repeat and later process.  [None] (the
          default) is a cold run; cold and fast-forwarded cells have
          distinct memo keys and cache fingerprints. *)
}

val default_config : config

val quick_config : config
(** Cheap settings for tests and smoke runs. *)

type run_opts = {
  jobs : int;  (** worker processes; 1 = in-process sequential *)
  cache_dir : string option;
      (** persistent result cache; cells are keyed by a digest of (engine
          knobs, arch, workload kind, iteration counts, scale) *)
  deadline : float option;
      (** per-cell wall-clock budget in seconds; overrunning workers are
          killed and the cell reported with status ["timeout"].  Forces
          the forked pool path even at [jobs = 1]. *)
  retries : int;
      (** extra attempts for cells whose worker {e crashed} (never for
          timeouts); a late success is reported as ["retried <n>"] *)
}

val sequential : run_opts
(** [{ jobs = 1; cache_dir = None; deadline = None; retries = 0 }] —
    single-process behaviour, failures after zero retries. *)

(** One measured (benchmark, engine, arch) cell: the paper's measurement
    triple plus the repeat statistics, in marshallable form. *)
type row = {
  row_cell : string;
  row_engine : string;
  row_arch : string;
  row_iters : int;
  row_repeats : int;
  row_seconds : float;  (** minimum across repeats (reported time) *)
  row_mean_seconds : float;  (** kept for machine-readable output *)
  row_samples : float list;
      (** raw per-repeat kernel seconds in run order — what the regression
          detector's noise-aware significance test ({!Sb_regress}) needs;
          the min/mean above are derived from it *)
  row_kernel_insns : int;
  row_perf : (string * int) list;
      (** non-zero kernel-phase architectural and engine counters
          ({!Sb_sim.Perf.to_string} names, declaration order) — this is
          where the DBT's [Traces_formed] / [Trace_dispatches] /
          [Trace_side_exits] / [Trace_invalidations] surface in [--json]
          output *)
  row_status : string;
      (** ["ok"]; ["retried <n>"] (succeeded after n crashed attempts);
          or a terminal failure — ["failed"], ["timeout"],
          ["quarantined"] — in which case the timing fields are
          [nan]/zero placeholders and [row_note] says why.  Downstream,
          {!Sb_regress} skips non-ok cells with a note instead of
          comparing them. *)
  row_note : string;  (** failure detail; empty when ok *)
}

(** {2 The bench-cell codec}

    The one JSON shape of a {!row}: the cells of [bench/main.exe --json]
    files, serve row frames, [simbench client --json/--dump] output and
    baseline snapshots all go through these functions, so every producer
    writes the same bytes and every consumer accepts the same fields.
    Cell keys, in order: [cell], [engine], [arch], [iters], [repeats],
    [seconds], [mean_seconds], [samples], [kernel_insns], [kernel_perf],
    [status], [status_note]. *)

val bench_schema : string
(** ["simbench-bench-json-3"] — the [schema] tag of a bench run; bumped
    from [-2] when cells gained the [status] field. *)

val row_to_json : ?experiment:string -> row -> Sb_util.Json.t
(** [experiment] prepends an ["experiment"] key (snapshot cells, which
    merge the cells of several experiments into one list). *)

val row_of_json :
  ?default_status:string -> Sb_util.Json.t -> (row, string) result
(** Every key but [kernel_perf] and [status_note] is required (a missing
    [kernel_perf] reads as no counters, a missing note as [""]).  A cell
    without [status] reads as [default_status] when given (schema-2 bench
    files and snapshots taken from them) and is rejected otherwise.
    Errors name the cell and the field. *)

val run_to_json :
  ?schema:string ->
  (string * Sb_util.Json.t) list ->
  Sb_util.Json.t list ->
  Sb_util.Json.t
(** [run_to_json header cells] is the run envelope
    [{"schema": schema, header..., "cells": cells}]; [schema] defaults to
    {!bench_schema}, and a bench run's header starts with
    ["experiment"]. *)

val reset_memo : unit -> unit
(** Drop the in-process memo (tests use this to force re-measurement). *)

val reset_records : unit -> unit

val recorded : unit -> row list
(** Every cell touched since the last {!reset_records}, sorted — the
    payload of [bench/main.exe --json]. *)

type cell_kind = [ `Suite | `Workloads of int ]

val cell_fingerprint :
  config:config ->
  arch:Sb_isa.Arch_sig.arch_id ->
  kind:cell_kind ->
  Sb_dbt.Config.t ->
  string
(** The on-disk cache key of a version-sweep cell; changes whenever any
    knob of the configuration, the arch, the kind, the iteration counts or
    the scale changes. *)

val prefetch :
  ?opts:run_opts ->
  config:config ->
  (Sb_isa.Arch_sig.arch_id * cell_kind * Sb_dbt.Config.t) list ->
  unit
(** Measure (or cache-load) any not-yet-memoized cells, [opts.jobs] at a
    time.  A cell whose worker fails, times out or is quarantined does
    {e not} abort the run: it is memoized as placeholder rows with the
    corresponding non-ok {!row.row_status} (one per benchmark of the
    cell), a warning goes to stderr, and rendering continues with gaps. *)

val cell_rows :
  ?opts:run_opts ->
  config:config ->
  arch:Sb_isa.Arch_sig.arch_id ->
  kind:cell_kind ->
  Sb_dbt.Config.t ->
  row list

val fig2 : ?config:config -> ?opts:run_opts -> unit -> string
(** sjeng vs mcf vs overall SPEC rating across QEMU versions. *)

val fig3 : ?config:config -> unit -> string
(** The benchmark table: iterations and operation densities. *)

val fig4 : unit -> string
(** Implementation-technique matrix of the evaluated platforms. *)

val fig5 : unit -> string
(** Host environment description. *)

val fig6 : ?config:config -> ?opts:run_opts -> unit -> string
(** Per-category SimBench speedups across QEMU versions, both guests. *)

val fig7 : ?config:config -> ?opts:run_opts -> unit -> string
(** Full suite runtimes on every platform, both guests. *)

val fig8 : ?config:config -> ?opts:run_opts -> unit -> string
(** Geomean SPEC vs geomean SimBench speedup across QEMU versions. *)

val extensions : ?config:config -> ?opts:run_opts -> unit -> string
(** The extension benchmarks (future work implemented) across the five
    platforms. *)

val all : ?config:config -> ?opts:run_opts -> unit -> string
(** Every experiment, in figure order, with headers; prefetches the whole
    version sweep in one pool pass first. *)

val synthetic_faults : ?opts:run_opts -> unit -> string
(** Harness self-check: drive one healthy, one crashing and one hanging
    synthetic cell through the pool (deadline defaults to 10s when
    [opts.deadline] is unset; at least two workers) and render their
    per-cell statuses.  The rows are {!recorded}, so [--json] output
    carries statuses ["ok"], ["failed"] and ["timeout"] — what the CI
    chaos smoke job asserts on.  Never raises. *)

(** Raw data access for tests and ablations. *)

val suite_times_for_version :
  ?opts:run_opts ->
  arch:Sb_isa.Arch_sig.arch_id ->
  config:config ->
  Sb_dbt.Config.t ->
  (string * float) list
(** Kernel seconds per benchmark for one DBT configuration (memoized). *)
