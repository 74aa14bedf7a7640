(** Small statistics helpers used by the reporting layer. *)

val mean : float list -> float
val geomean : float list -> float

val weighted_geomean : (float * float) list -> float
(** [weighted_geomean [(value, weight); ...]] — the paper's "SPEC rating" is a
    weighted geometric mean across benchmarks. *)

val median : float list -> float

val min_of_repeats : float list -> float
(** The best of repeated timings of the same kernel — the standard way to
    report a deterministic timed kernel (the repeats differ only by host
    noise, which is strictly additive).  The mean stays available for
    machine-readable output. *)

val speedup : baseline:float -> float -> float
(** [speedup ~baseline t] is [baseline /. t]: > 1 means faster than baseline. *)

(** {2 Confidence intervals}

    Noise-aware significance for the regression detector ({!Sb_regress}):
    two timing cells are only distinguishable when their 95% confidence
    intervals over the recorded repeats do not overlap. *)

val ci95 : float list -> float * float
(** t-based 95% confidence interval [(lo, hi)] of the mean over repeat
    samples.  A single sample yields the degenerate point interval
    [(x, x)] (no noise information — threshold-only decisions); the empty
    list yields [(nan, nan)]. *)

val intervals_overlap : float * float -> float * float -> bool
(** Closed-interval overlap; intervals with nan endpoints are treated as
    overlapping (unknown noise must not produce a confident verdict). *)

val relative_change : baseline:float -> float -> float
(** [(t - baseline) / baseline]: > 0 means slower (a regression when [t]
    is a time). *)
