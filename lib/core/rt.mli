(** The SimBench bare-metal runtime ("crt0").

    Builds the complete guest program around a benchmark body: exception
    vectors and default handlers, guest-built page tables (identity sections
    for RAM and devices, a large page-mapped region for the memory
    benchmarks, and a user-accessible page), MMU enablement, the
    iteration-count fetch from the bench device, and the three-phase
    structure with phase signalling.  Mirrors the paper's architecture
    support package responsibilities: "bringing the machine out of reset,
    managing the MMU and caches". *)

val program :
  support:Support.t -> platform:Platform.t -> bench:Bench.t -> Sb_asm.Program.t
(** Assemble the full bootable image for one benchmark. *)

val ops :
  support:Support.t -> platform:Platform.t -> bench:Bench.t -> Pasm.op list
(** The full portable-assembly program [program] assembles: runtime plus
    benchmark body.  Exposed so static analyses ({!Sb_analysis}) can inspect
    the exact program that will run. *)

val vector_slot_labels : string list
(** Labels on the exception-vector slots.  Slots are entered by hardware
    vectoring rather than by any static branch, so analyses must treat these
    as extra control-flow roots. *)

val wrap_irq_handler : Pasm.op list -> Pasm.op list
(** Bank [v0] and [v3] into the TPIDR scratch registers around an IRQ
    handler body and append the exception return.  Interrupt handlers must
    use this (or preserve every register themselves): asynchronous
    interrupts can arrive while any register is live. *)
