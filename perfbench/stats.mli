(** The benchmark's own statistics: order statistics with a sample-count
    guard, the per-engine MIPS geomean, the failure share and the
    clock-integrity check.  Pure functions, unit-tested in [test/]. *)

val median : float list -> float
(** Linear-interpolated median; [nan] on an empty list. *)

val p90 : float list -> (float, string) result
(** The 90th percentile, refused ([Error]) unless at least ten samples
    lie strictly beyond it — a p90 over fewer samples is one or two
    outliers, not a percentile. *)

val geomean : float list -> float
(** Geometric mean of positive values; [nan] on an empty list or any
    non-positive value. *)

val mips : insns:int -> seconds:float list -> float
(** Millions of guest instructions per host second: [insns] over the
    median of the kernel-seconds samples. *)

val engine_mips : (string * int * float list) list -> (string * float) list
(** Per engine, the geomean over its cells of {!mips}: one entry per
    distinct engine (first-seen order) from [(engine, insns, samples)]
    cells.  Geomean, so one slow cell cannot swamp an engine's figure. *)

val failed_frac : attempted:int -> failed:int -> float
(** Cells not ok over cells attempted; [Invalid_argument] when nothing
    was attempted. *)

val clock_ok : kernel_seconds:float -> span_seconds:float -> bool
(** A cell's wall-clock [kernel_seconds] (from the simulator) must be
    non-negative, finite and no longer than the monotonic span that
    encloses it; anything else means the wall clock stepped. *)

val mix_mismatches : sent:(string * int) list -> seen:(string * int) list -> string list
(** The serve-mix check: for each kind of cell, the count the clients sent
    against the count the daemon's counters saw (a kind missing from
    [seen] counts 0).  One message per kind that differs; [[]] when the
    realised mix is the one sent. *)
