(** SimBench harness: runs one benchmark on one engine and reports the
    paper's measurement triple — kernel run time, iteration count, and the
    counters behind the operation-density metric.

    Iteration counts default to Figure 3's values divided by [scale]
    (simulators-in-a-simulator run slower than real hardware); both the
    scaled count and the scale are recorded so results are reported
    "with run time and iteration counts", as the paper requires. *)

type outcome = {
  bench_name : string;
  engine_name : string;
  arch_name : string;
  iters : int;
  scale : int;
  result : Sb_sim.Run_result.t;
  kernel_seconds : float;
  kernel_insns : int;
  tested_ops : int;
}

exception Benchmark_failed of string
(** The guest reported failure (non-zero exit), did not halt, or never
    signalled its kernel phase. *)

val default_scale : int
(** 20000: Figure 3 iteration counts divided by this keep a full-suite,
    all-engine sweep within interactive time. *)

val run :
  ?platform:Platform.t ->
  ?scale:int ->
  ?iters:int ->
  ?switch_at:Checkpoint.point ->
  ?setup_engine:Sb_sim.Engine.t ->
  ?checkpoints:Checkpoint.store ->
  support:Support.t ->
  engine:Sb_sim.Engine.t ->
  Bench.t ->
  outcome
(** [iters] overrides the scaled default entirely.

    [switch_at] enables checkpointed fast-forward: the run executes up to
    the switch point under [setup_engine] — or restores a matching
    snapshot from [checkpoints] — and only then runs the timed kernel
    under [engine].  The default setup engine matches the timed engine's
    retirement granularity: per-insn engines (interp, detailed, virt,
    native) all share one interpreter-produced checkpoint, while the DBT
    fast-forwards under itself so its block-aligned perf attribution at
    phase edges cancels out of the count.  [kernel_insns] credits back any
    instructions the setup run overshot into the kernel, so checkpointed
    and cold runs report identical counts.  [kernel_seconds] and the
    kernel perf counters cover the timed engine's share only. *)

val density : outcome -> float
(** Tested operations per kernel instruction (the Figure 3 metric). *)
