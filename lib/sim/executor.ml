open Sb_isa

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

type 'tech t = {
  machine : Machine.t;
  cpu : Cpu.t;
  bus : Sb_mem.Bus.t;
  perf : Perf.t;
  code_pages : Bytes.t;
  mutable timer_backlog : int;
  tech : 'tech;
}

let create machine tech =
  let bus = machine.Machine.bus in
  let ram_pages = (Sb_mem.Bus.ram_size bus + page_mask) / page_size in
  {
    machine;
    cpu = machine.Machine.cpu;
    bus;
    perf = Perf.create ();
    code_pages = Bytes.make ((ram_pages + 7) / 8) '\000';
    timer_backlog = 0;
    tech;
  }

(* ---------------- faults ---------------------------------------------- *)

type fault = {
  vector : Exn.vector;
  cause : int;
  far : int option;
  return_addr : int;
  retired : int;
}

exception Guest_fault of fault
exception Stop of Run_result.stop_reason

let abort_vector = function
  | Sb_mmu.Access.Execute -> Exn.Prefetch_abort
  | Sb_mmu.Access.Read | Sb_mmu.Access.Write -> Exn.Data_abort

let translation_fault ?(retired = 0) ~iaddr ~kind ~va fault =
  raise
    (Guest_fault
       {
         vector = abort_vector kind;
         cause = Exn.Cause.of_fault ~kind fault;
         far = Some va;
         return_addr = iaddr;
         retired;
       })

let bus_fault ?(retired = 0) ~iaddr ~kind ~va () =
  raise
    (Guest_fault
       {
         vector = abort_vector kind;
         cause = Exn.Cause.bus_error;
         far = Some va;
         return_addr = iaddr;
         retired;
       })

let undef ?(retired = 0) ~iaddr () =
  raise
    (Guest_fault
       {
         vector = Exn.Undefined;
         cause = Exn.Cause.undefined;
         far = None;
         return_addr = iaddr;
         retired;
       })

let syscall ?(retired = 0) ~return_addr () =
  raise
    (Guest_fault
       { vector = Exn.Syscall; cause = Exn.Cause.syscall; far = None; return_addr; retired })

let walker_read32 bus pa = try Sb_mem.Bus.read32 bus pa with Sb_mem.Bus.Fault _ -> 0

(* ---------------- physical memory --------------------------------------- *)

let read_phys ctx ~retired ~iaddr ~va width pa =
  if Sb_mem.Bus.is_ram ctx.bus pa then
    let ram = Sb_mem.Bus.ram ctx.bus in
    match width with
    | Uop.W8 -> Sb_mem.Phys_mem.read8 ram pa
    | Uop.W16 -> Sb_mem.Phys_mem.read16 ram pa
    | Uop.W32 -> Sb_mem.Phys_mem.read32 ram pa
  else begin
    Perf.incr ctx.perf Perf.Io_reads;
    try
      match width with
      | Uop.W8 -> Sb_mem.Bus.read8 ctx.bus pa
      | Uop.W16 -> Sb_mem.Bus.read16 ctx.bus pa
      | Uop.W32 -> Sb_mem.Bus.read32 ctx.bus pa
    with Sb_mem.Bus.Fault _ ->
      bus_fault ~retired ~iaddr ~kind:Sb_mmu.Access.Read ~va ()
  end

let is_code_page ctx ppage =
  Char.code (Bytes.get ctx.code_pages (ppage lsr 3)) land (1 lsl (ppage land 7)) <> 0

let mark_code_page ctx ppage =
  let i = ppage lsr 3 in
  Bytes.set ctx.code_pages i
    (Char.chr (Char.code (Bytes.get ctx.code_pages i) lor (1 lsl (ppage land 7))))

let drop_code_page ctx ppage =
  let i = ppage lsr 3 in
  Bytes.set ctx.code_pages i
    (Char.chr (Char.code (Bytes.get ctx.code_pages i) land lnot (1 lsl (ppage land 7))));
  Perf.incr ctx.perf Perf.Smc_invalidations

let write_phys ctx ~retired ~iaddr ~va width pa v =
  if Sb_mem.Bus.is_ram ctx.bus pa then begin
    let ram = Sb_mem.Bus.ram ctx.bus in
    (match width with
    | Uop.W8 -> Sb_mem.Phys_mem.write8 ram pa v
    | Uop.W16 -> Sb_mem.Phys_mem.write16 ram pa v
    | Uop.W32 -> Sb_mem.Phys_mem.write32 ram pa v);
    is_code_page ctx (pa lsr page_shift)
  end
  else begin
    Perf.incr ctx.perf Perf.Io_writes;
    try
      (match width with
      | Uop.W8 -> Sb_mem.Bus.write8 ctx.bus pa v
      | Uop.W16 -> Sb_mem.Bus.write16 ctx.bus pa v
      | Uop.W32 -> Sb_mem.Bus.write32 ctx.bus pa v);
      false
    with Sb_mem.Bus.Fault _ ->
      bus_fault ~retired ~iaddr ~kind:Sb_mmu.Access.Write ~va ()
  end

(* ---------------- exception entry --------------------------------------- *)

let irq ctx =
  {
    vector = Exn.Irq;
    cause = Exn.Cause.irq;
    far = None;
    return_addr = ctx.cpu.Cpu.pc;
    retired = 0;
  }

let deliver ctx f =
  Perf.incr ctx.perf Perf.Exceptions_total;
  (match f.vector with
  | Exn.Data_abort -> Perf.incr ctx.perf Perf.Data_abort
  | Exn.Prefetch_abort -> Perf.incr ctx.perf Perf.Prefetch_abort
  | Exn.Undefined -> Perf.incr ctx.perf Perf.Undef_insn
  | Exn.Syscall -> Perf.incr ctx.perf Perf.Svc_taken
  | Exn.Irq -> Perf.incr ctx.perf Perf.Irq_taken
  | Exn.Reset -> ());
  Exn.enter ctx.cpu f.vector ~return_addr:f.return_addr ?far:f.far ~cause:f.cause ()

(* ---------------- device time and run boundaries ------------------------ *)

let[@inline] tick ctx n =
  ctx.timer_backlog <- ctx.timer_backlog + n;
  if ctx.timer_backlog >= 64 then begin
    Sb_mem.Timer.advance ctx.machine.Machine.timer ctx.timer_backlog;
    ctx.timer_backlog <- 0
  end

let flush_timer ctx =
  if ctx.timer_backlog > 0 then begin
    Sb_mem.Timer.advance ctx.machine.Machine.timer ctx.timer_backlog;
    ctx.timer_backlog <- 0
  end

(* Leaving at a switch point: push the batched ticks to the device so the
   snapshot (and the engine that resumes it) sees the timer state a cold
   run would at this instruction. *)
let switch_stop ctx =
  flush_timer ctx;
  raise (Stop Run_result.Switch_point)

(* A phase boundary was crossed: flush batched device time so timer state
   is a pure function of retired instructions at every phase edge — a run
   resumed from a phase snapshot then ticks identically to one that
   crossed the boundary itself. *)
let phase_sync ctx =
  let benchdev = ctx.machine.Machine.benchdev in
  flush_timer ctx;
  Sb_mem.Benchdev.clear_sync benchdev;
  if Sb_mem.Benchdev.stop_pending benchdev then switch_stop ctx

(* Any run exit flushes the batched ticks: at every run boundary the timer
   count is then an exact function of retired instructions, so a snapshot
   taken between runs (engine switch, debugger step) carries complete
   device time and no ticks are stranded in the context. *)
let execute ctx loop =
  let stop = try loop () with Stop reason -> reason in
  flush_timer ctx;
  stop

(* ---------------- session cache ------------------------------------------ *)

type 'tech session = (Machine.t * int * 'tech t) option ref

let session () = ref None

let ctx_for session ~make machine =
  match !session with
  | Some (m, gen, ctx) when m == machine && gen = machine.Machine.state_gen ->
    (* the ctx owns its counter array (compiled state may capture it); a
       new run starts it from zero in place *)
    Perf.reset ctx.perf;
    ctx
  | _ ->
    let ctx = create machine (make ()) in
    session := Some (machine, machine.Machine.state_gen, ctx);
    ctx

let run ~name session ~make ~execute ?max_insns machine =
  let max_insns =
    match max_insns with Some n -> n | None -> !Runner.insn_budget
  in
  let ctx = ctx_for session ~make machine in
  Runner.wrap ~name ~machine ~perf:ctx.perf ~execute:(fun () -> execute ctx ~max_insns)

(* ---------------- the reference executor -------------------------------- *)

type trap = Undefined_insn | Wait_for_interrupt

module type TECHNIQUE = sig
  type tech

  val translate :
    tech t ->
    va:int ->
    kind:Sb_mmu.Access.kind ->
    priv:Sb_mmu.Access.privilege ->
    iaddr:int ->
    int

  val flush_tlb : tech t -> unit
  val invalidate_tlb_page : tech t -> vpn:int -> unit
  val asid_tagged : bool
  val code_written : tech t -> int -> unit
  val trap : tech t -> trap -> unit
  val count_page_crossings : bool
end

module Make (A : Arch_sig.ARCH) (T : TECHNIQUE) = struct
  let fetch_pa ctx va =
    let pa =
      T.translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr:va
    in
    if Sb_mem.Bus.is_ram ctx.bus pa then pa
    else bus_fault ~iaddr:va ~kind:Sb_mmu.Access.Execute ~va ()

  let fetch_byte ctx ~iaddr a =
    let pa =
      T.translate ctx ~va:a ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr
    in
    if Sb_mem.Bus.is_ram ctx.bus pa then
      Sb_mem.Phys_mem.read8 (Sb_mem.Bus.ram ctx.bus) pa
    else bus_fault ~iaddr ~kind:Sb_mmu.Access.Execute ~va:a ()

  let decode ctx va =
    Perf.incr ctx.perf Perf.Decodes;
    A.decode ~fetch8:(fetch_byte ctx ~iaddr:va) ~addr:va

  let[@inline] operand ctx = function
    | Uop.Reg r -> ctx.cpu.Cpu.regs.(r)
    | Uop.Imm v -> v land 0xFFFF_FFFF

  let undefined ctx (d : Uop.decoded) =
    T.trap ctx Undefined_insn;
    undef ~iaddr:d.Uop.addr ()

  let exec_uop ctx (d : Uop.decoded) uop =
    let cpu = ctx.cpu in
    match uop with
    | Uop.Nop -> ()
    | Uop.Alu { op; rd; rn; rm; set_flags } ->
      let a = operand ctx rn in
      let b = operand ctx rm in
      if set_flags then begin
        let result, n, z, c, v = Alu_eval.eval_flags op a b in
        cpu.Cpu.flag_n <- n;
        cpu.Cpu.flag_z <- z;
        cpu.Cpu.flag_c <- c;
        cpu.Cpu.flag_v <- v;
        match rd with Some rd -> cpu.Cpu.regs.(rd) <- result | None -> ()
      end
      else begin
        match rd with
        | Some rd -> cpu.Cpu.regs.(rd) <- Alu_eval.eval op a b
        | None -> ignore (Alu_eval.eval op a b)
      end
    | Uop.Load { width; rd; base; offset; user } ->
      Perf.incr ctx.perf Perf.Loads;
      if user then Perf.incr ctx.perf Perf.User_accesses;
      let va = Sb_util.U32.add (operand ctx base) offset in
      let priv = if user then Sb_mmu.Access.User else cpu.Cpu.mode in
      let iaddr = d.Uop.addr in
      let pa = T.translate ctx ~va ~kind:Sb_mmu.Access.Read ~priv ~iaddr in
      cpu.Cpu.regs.(rd) <- read_phys ctx ~retired:0 ~iaddr ~va width pa
    | Uop.Store { width; rs; base; offset; user } ->
      Perf.incr ctx.perf Perf.Stores;
      if user then Perf.incr ctx.perf Perf.User_accesses;
      let va = Sb_util.U32.add (operand ctx base) offset in
      let priv = if user then Sb_mmu.Access.User else cpu.Cpu.mode in
      let iaddr = d.Uop.addr in
      let pa = T.translate ctx ~va ~kind:Sb_mmu.Access.Write ~priv ~iaddr in
      if write_phys ctx ~retired:0 ~iaddr ~va width pa cpu.Cpu.regs.(rs) then begin
        let ppage = pa lsr page_shift in
        T.code_written ctx ppage;
        drop_code_page ctx ppage
      end
    | Uop.Branch { cond; target; link } ->
      (match target with
      | Uop.Direct _ -> Perf.incr ctx.perf Perf.Branch_direct
      | Uop.Indirect _ -> Perf.incr ctx.perf Perf.Branch_indirect);
      let taken =
        Uop.eval_cond cond ~n:cpu.Cpu.flag_n ~z:cpu.Cpu.flag_z ~c:cpu.Cpu.flag_c
          ~v:cpu.Cpu.flag_v
      in
      if taken then begin
        Perf.incr ctx.perf Perf.Branch_taken;
        let return_addr = d.Uop.addr + d.Uop.length in
        (match link with
        | Some l -> cpu.Cpu.regs.(l) <- return_addr land 0xFFFF_FFFF
        | None -> ());
        (match target with
        | Uop.Direct t -> cpu.Cpu.pc <- t
        | Uop.Indirect r -> cpu.Cpu.pc <- cpu.Cpu.regs.(r));
        if T.count_page_crossings && cpu.Cpu.pc lsr page_shift <> d.Uop.addr lsr page_shift
        then
          Perf.incr ctx.perf
            (match target with
            | Uop.Direct _ -> Perf.Branch_cross_direct
            | Uop.Indirect _ -> Perf.Branch_cross_indirect)
      end
    | Uop.Svc _ -> syscall ~return_addr:(d.Uop.addr + d.Uop.length) ()
    | Uop.Undef -> undefined ctx d
    | Uop.Eret -> Exn.eret cpu
    | Uop.Cop_read { rd; creg } -> (
      match Cop.read cpu ~creg with
      | Ok v ->
        Perf.incr ctx.perf Perf.Cop_reads;
        cpu.Cpu.regs.(rd) <- v
      | Error `Undefined -> undefined ctx d)
    | Uop.Cop_write { creg; src } -> (
      match Cop.write cpu ~creg ~value:(operand ctx src) with
      | Ok Cop.No_effect -> Perf.incr ctx.perf Perf.Cop_writes
      | Ok Cop.Translation_changed ->
        Perf.incr ctx.perf Perf.Cop_writes;
        T.flush_tlb ctx
      | Ok Cop.Asid_changed ->
        Perf.incr ctx.perf Perf.Cop_writes;
        if not T.asid_tagged then T.flush_tlb ctx
      | Error `Undefined -> undefined ctx d)
    | Uop.Tlb_inv_page r ->
      Perf.incr ctx.perf Perf.Tlb_inv_page_ops;
      T.invalidate_tlb_page ctx ~vpn:(cpu.Cpu.regs.(r) lsr page_shift)
    | Uop.Tlb_inv_all ->
      Perf.incr ctx.perf Perf.Tlb_flush_ops;
      T.flush_tlb ctx
    | Uop.Wfi -> (
      T.trap ctx Wait_for_interrupt;
      match Runner.wait_for_interrupt ctx.machine ~perf:ctx.perf with
      | `Wake -> ()
      | `Deadlock -> raise (Stop Run_result.Wfi_deadlock))
    | Uop.Halt -> raise (Stop Run_result.Halted)

  let rec exec_uops ctx d = function
    | [] -> ()
    | uop :: rest ->
      exec_uop ctx d uop;
      exec_uops ctx d rest

  let exec_insn ctx (d : Uop.decoded) =
    ctx.cpu.Cpu.pc <- (d.Uop.addr + d.Uop.length) land 0xFFFF_FFFF;
    exec_uops ctx d d.Uop.uops;
    Perf.incr ctx.perf Perf.Insns;
    Perf.add ctx.perf Perf.Uops (List.length d.Uop.uops)
end
