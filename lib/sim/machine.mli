(** A complete guest machine: CPU, RAM, bus, and the SBP reference platform
    device set.  Engines execute against this; the harness owns it. *)

(** Fixed device window bases of the "sbp-ref" platform.  Platform support
    packages may relocate devices by building a custom machine; these are the
    defaults. *)
module Map : sig
  val uart_base : int
  val timer_base : int
  val intc_base : int
  val devid_base : int
  val bench_base : int
end

type t = {
  bus : Sb_mem.Bus.t;
  cpu : Cpu.t;
  uart : Sb_mem.Uart.t;
  intc : Sb_mem.Intc.t;
  timer : Sb_mem.Timer.t;
  devid : Sb_mem.Devid.t;
  benchdev : Sb_mem.Benchdev.t;
  ram_size : int;
  mutable state_gen : int;
      (** Bumped whenever machine state changes behind the engines' backs
          ({!load_program}, {!reset}, snapshot restore, or an explicit
          {!touch}).  Engines key cached translation state on
          [(machine, state_gen)] so stale caches are rebuilt lazily. *)
}

val now : unit -> float
(** The measurement clock: seconds on the OS monotonic clock, which NTP
    cannot step.  Only differences between readings are meaningful. *)

val create : ?ram_size:int -> ?now:(unit -> float) -> unit -> t
(** Default RAM size is 32 MiB.  [now] is the clock that timestamps
    benchmark phases; it defaults to {!now}, and tests can pass a fake. *)

val load_program : t -> Sb_asm.Program.t -> unit
(** Copy the image into physical RAM at its base and point the CPU entry at
    the program entry (physical = virtual at reset, MMU disabled). *)

val reset : t -> unit
(** Reset CPU and device state, leaving RAM contents intact. *)

val irq_pending : t -> bool
(** True when the interrupt controller asserts and the CPU has IRQs
    enabled. *)

val touch : t -> unit
(** Invalidate engine-cached state derived from this machine (bump
    {!field-state_gen}).  Call after mutating RAM or CPU state directly,
    outside an engine run. *)
