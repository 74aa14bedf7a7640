(** The reference executor: the one implementation of the micro-op
    semantics and of the engine glue every execution engine shares.

    The paper's Figure 4 tells simulators apart by technique — how memory
    is accessed, how control flow is dispatched, how exceptions and
    interrupts are taken — not by instruction semantics.  So the engines
    differ only in what they plug in here: their own translation and fetch
    policy, their cost hooks (vm-exits, cycle accounting, the memory-access
    log) and their run loop.  The interpreter, the detailed model and the
    direct-execution engines run every micro-op through {!Make}; the DBT
    keeps its emitters but shares the fault records, physical access,
    exception entry, device-time batching and session cache below. *)

type 'tech t = {
  machine : Machine.t;
  cpu : Cpu.t;
  bus : Sb_mem.Bus.t;
  perf : Perf.t;  (** owned by the context, reset in place per run *)
  code_pages : Bytes.t;
      (** one bit per physical RAM page holding cached decoded or
          translated code: stores to such a page invalidate it *)
  mutable timer_backlog : int;  (** retired instructions not yet ticked *)
  tech : 'tech;  (** the engine's own translation and cost state *)
}
(** One engine's execution context on one machine. *)

(** {1 Guest faults} *)

type fault = {
  vector : Exn.vector;
  cause : int;
  far : int option;
  return_addr : int;
      (** ELR: the faulting instruction's start for aborts and undefined
          instructions (including a code fetch whose tail bytes fault),
          the next instruction for a syscall *)
  retired : int;
      (** instructions of the current translated block already retired
          (DBT); 0 on the per-instruction engines *)
}

exception Guest_fault of fault

exception Stop of Run_result.stop_reason
(** Leave the run loop with this stop reason ({!execute} catches it). *)

val translation_fault :
  ?retired:int ->
  iaddr:int ->
  kind:Sb_mmu.Access.kind ->
  va:int ->
  Sb_mmu.Access.fault ->
  'a
(** An MMU fault on [va] by the instruction at [iaddr]: a prefetch abort
    for a fetch, a data abort otherwise. *)

val bus_fault :
  ?retired:int -> iaddr:int -> kind:Sb_mmu.Access.kind -> va:int -> unit -> 'a
(** An access to a physical address no device claims. *)

val undef : ?retired:int -> iaddr:int -> unit -> 'a
val syscall : ?retired:int -> return_addr:int -> unit -> 'a

val walker_read32 : Sb_mem.Bus.t -> int -> int
(** Page-table load for {!Sb_mmu.Walker.walk}: a bus fault reads as an
    invalid descriptor. *)

(** {1 Physical memory} *)

val read_phys :
  'tech t -> retired:int -> iaddr:int -> va:int -> Sb_isa.Uop.width -> int -> int
(** RAM directly, anything else through the bus (counted as [Io_reads]). *)

val write_phys :
  'tech t -> retired:int -> iaddr:int -> va:int -> Sb_isa.Uop.width -> int -> int -> bool
(** Like {!read_phys} for stores ([Io_writes]).  True when the store hit a
    page marked in [code_pages]: the caller drops its cached code for that
    page and then calls {!drop_code_page}. *)

val mark_code_page : 'tech t -> int -> unit

val drop_code_page : 'tech t -> int -> unit
(** Clear a page's code bit and count one [Smc_invalidations]. *)

(** {1 Exception entry and device time} *)

val irq : 'tech t -> fault
(** The interrupt taken at the current pc. *)

val deliver : 'tech t -> fault -> unit
(** Count the exception per vector and enter it ({!Exn.enter}). *)

val tick : 'tech t -> int -> unit
(** Retire [n] instructions of device time; the timer is advanced in
    batches of 64. *)

val phase_sync : 'tech t -> unit
(** Call when the bench device reports a phase boundary: flush device
    time, and raise [Stop Switch_point] if a switch was requested. *)

val execute : 'tech t -> (unit -> Run_result.stop_reason) -> Run_result.stop_reason
(** Run an engine loop, catching {!Stop}, and flush device time on any
    exit. *)

(** {1 Session cache} *)

type 'tech session
(** The last run's context, reused while the machine is the same and its
    [state_gen] is unchanged: a debugger stepping one machine stays warm,
    while load_program, reset, snapshot restore or {!Machine.touch} force a
    rebuild. *)

val session : unit -> 'tech session

val run :
  name:string ->
  'tech session ->
  make:(unit -> 'tech) ->
  execute:('tech t -> max_insns:int -> Run_result.stop_reason) ->
  ?max_insns:int ->
  Machine.t ->
  Run_result.t
(** An engine's [run]: fetch or build the context, then {!Runner.wrap} its
    [execute] ([max_insns] defaults to {!Runner.insn_budget}). *)

(** {1 The executor} *)

type trap = Undefined_insn | Wait_for_interrupt

(** What an engine plugs into the executor.  The ALU and branch paths call
    none of these (a call through a functor argument is indirect); hooks sit
    on memory and system operations only. *)
module type TECHNIQUE = sig
  type tech

  val translate :
    tech t ->
    va:int ->
    kind:Sb_mmu.Access.kind ->
    priv:Sb_mmu.Access.privilege ->
    iaddr:int ->
    int
  (** Guest-virtual to physical for a code fetch or data access, raising
      {!Guest_fault} through {!translation_fault}.  Also where per-access
      costs go: the detailed model logs data addresses here, and the virt
      engine takes its device-access exits. *)

  val flush_tlb : tech t -> unit
  (** SCTLR/TTBR write or TLB invalidate-all. *)

  val invalidate_tlb_page : tech t -> vpn:int -> unit

  val asid_tagged : bool
  (** False: an ASID write flushes the TLBs too. *)

  val code_written : tech t -> int -> unit
  (** A store hit this physical code page: drop its cached decodes. *)

  val trap : tech t -> trap -> unit
  (** An undefined instruction or a WFI is about to be handled. *)

  val count_page_crossings : bool
  (** Count taken branches that leave the page ([Branch_cross_*]). *)
end

module Make (A : Sb_isa.Arch_sig.ARCH) (T : TECHNIQUE) : sig
  val fetch_pa : T.tech t -> int -> int
  (** Physical address of the instruction at this pc; a prefetch abort if
      it is not RAM. *)

  val decode : T.tech t -> int -> Sb_isa.Uop.decoded
  (** Decode the instruction at this pc (counted as [Decodes]). *)

  val exec_insn : T.tech t -> Sb_isa.Uop.decoded -> unit
  (** Retire one decoded instruction: pc, every micro-op, then [Insns] and
      [Uops].  Raises {!Guest_fault} or {!Stop}. *)
end
