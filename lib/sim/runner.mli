(** Shared engine plumbing: host-time measurement on the monotonic clock
    ({!Machine.now}), kernel-phase perf snapshots, WFI waiting, result
    assembly.  Engines implement only their execution loop and delegate
    the rest here. *)

val insn_budget : int ref
(** Process-wide watchdog budget: the value engines use when [?max_insns]
    is not passed explicitly.  Defaults to {!default_max_insns}.  The
    bench harness lowers it ([bench --insn-budget N]) so a runaway cell —
    an engine bug that turns a bounded kernel into an unbounded spin —
    stops with [Insn_limit] (surfacing as a failed cell) instead of
    burning hours.  Forked pool workers inherit the parent's setting. *)

val set_insn_budget : int -> unit
(** Set {!insn_budget}; raises [Invalid_argument] on a non-positive
    budget. *)

val wrap :
  name:string ->
  machine:Machine.t ->
  perf:Perf.t ->
  execute:(unit -> Run_result.stop_reason) ->
  Run_result.t
(** Runs [execute] with phase-snapshot callbacks installed on the machine's
    bench device, and assembles the {!Run_result.t}. *)

val wait_for_interrupt : Machine.t -> perf:Perf.t -> [ `Wake | `Deadlock ]
(** Architectural WFI: advance the timer until the interrupt controller has
    an enabled line pending (wake even if the CPU masks IRQs, as real WFI
    does).  Returns [`Deadlock] when no interrupt source can ever fire. *)
