(** Harness/semihosting device.

    SimBench benchmarks run in three phases; only the kernel phase is timed.
    The guest signals phase transitions by writing the PHASE register, and
    this device timestamps the writes with a host clock supplied by the
    harness.  It also carries the iteration count into the guest and an exit
    code out of it.

    Register map (byte offsets):
    - [0x0] PHASE: write 1 = kernel start, 2 = kernel end; read back.
    - [0x4] EXIT: write records the exit code and requests halt.
    - [0x8] OPCOUNT: write adds the value to the tested-operation counter.
    - [0xC] ITERS: read returns the harness-provided iteration count.
    - [0x10] ARG0, [0x14] ARG1: extra harness-provided parameters. *)

type t

type phase = Setup | Kernel | Cleanup

val create : now:(unit -> float) -> unit -> t
(** [now] is the host clock that timestamps phase writes, in seconds;
    {!Sb_sim.Machine.create} supplies the monotonic clock, tests a fake. *)

val device : t -> Device.t

val set_iters : t -> int -> unit

val set_on_phase : t -> (phase -> unit) -> unit
(** Install a callback fired on every PHASE write, after the timestamp is
    recorded.  Engines use it to snapshot perf counters at kernel-phase
    boundaries without polling. *)

val phase : t -> phase
val kernel_seconds : t -> float option
(** Wall-clock duration between the kernel-start and kernel-end writes. *)

val op_count : t -> int
val exit_code : t -> int option
val exited : t -> bool
val reset : t -> unit

val set_stop_phase : t -> phase option -> unit
(** Arm (or disarm, with [None]) a switch point: the next PHASE write that
    lands the device in the given phase sets {!stop_pending}.  Engines poll
    the flag at their dispatch safe points and stop with
    [Run_result.Switch_point], leaving the machine resumable.  Arming
    clears any pending stop. *)

val stop_pending : t -> bool

val sync_pending : t -> bool
(** Set by every PHASE write: the running engine should flush batched
    device time (e.g. its timer tick backlog) at the next safe point and
    then {!clear_sync}.  Aligning device time to phase boundaries makes a
    run resumed from a phase snapshot tick-identical to a cold run. *)

val clear_sync : t -> unit

val mark_kernel_start : t -> unit
(** Record "now" as the kernel-start timestamp if none is recorded — used
    by the runner when a run begins from a snapshot taken mid-kernel, so
    [kernel_seconds] measures only this run's clock. *)

type state = {
  s_phase : phase;
  s_iters : int;
  s_args : int array;
  s_ops : int;
  s_exit_code : int option;
}
(** Serializable architectural state.  Host timestamps are deliberately
    excluded: a restored run times its own kernel phase. *)

val state : t -> state
val restore : t -> state -> unit
