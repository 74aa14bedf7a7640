open Sb_isa
open Sb_sim

let page_shift = 12
let page_mask = (1 lsl page_shift) - 1

module Timing = struct
  type t = {
    fetch_latency : int;
    decode_latency : int;
    execute_latency : int;
    mul_latency : int;
    cache_hit_latency : int;
    cache_miss_latency : int;
    walk_level_latency : int;
    exception_latency : int;
  }

  let default =
    {
      fetch_latency = 1;
      decode_latency = 1;
      execute_latency = 1;
      mul_latency = 3;
      cache_hit_latency = 1;
      cache_miss_latency = 20;
      walk_level_latency = 20;
      exception_latency = 12;
    }
end

module Make (A : Arch_sig.ARCH) = struct
  let name = Printf.sprintf "detailed-%s" A.name

  let features =
    [
      ("Execution Model", "Detailed Interpreter");
      ("Memory Access", "Modelled TLB");
      ("Code Generation", "None");
      ("Control Flow", "Interpreted");
      ("Interrupts", "Insn. Boundaries");
      ("Synchronous Exceptions", "Interpreted");
      ("Undefined Instruction", "Interpreted");
    ]

  let timing = Timing.default

  type stage =
    | Fetch
    | Decode_stage
    | Execute_stage of Uop.decoded
    | Mem_stage
    | Writeback

  type tech = {
    itlb : Sb_mmu.Tlb.t;
    dtlb : Sb_mmu.Tlb.t;
    icache : Cache_model.t;
    dcache : Cache_model.t;
    events : stage Event_queue.t;
    mutable cycles : int;
    mutable mem_accesses : int list;  (* physical addresses touched by the current insn *)
    mutable extra_latency : int;      (* walk latencies accumulated during translation *)
  }

  let cycles_of_last_run = ref 0

  let make () =
    {
      itlb = Sb_mmu.Tlb.create ~entries:32;
      dtlb = Sb_mmu.Tlb.create ~entries:64;
      icache = Cache_model.create ~size_bytes:(16 * 1024) ~line_bytes:32;
      dcache = Cache_model.create ~size_bytes:(32 * 1024) ~line_bytes:32;
      events = Event_queue.create ();
      cycles = 0;
      mem_accesses = [];
      extra_latency = 0;
    }

  (* untagged TLB lookup; a walk adds its modelled latency *)
  let tlb_translate (ctx : tech Executor.t) tlb ~va ~kind ~priv ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else begin
      let vpn = va lsr page_shift in
      match Sb_mmu.Tlb.lookup tlb ~vpn ~asid:0 with
      | Some e ->
        Perf.incr ctx.perf Perf.Tlb_hit;
        if Sb_mmu.Access.Ap.permits ~ap:e.Sb_mmu.Tlb.ap ~xn:e.Sb_mmu.Tlb.xn kind priv
        then (e.Sb_mmu.Tlb.ppn lsl page_shift) lor (va land page_mask)
        else Executor.translation_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
      | None -> (
        Perf.incr ctx.perf Perf.Tlb_miss;
        Perf.incr ctx.perf Perf.Mmu_walks;
        let ttbr = ctx.cpu.Cpu.cop.(Cregs.ttbr) in
        match Sb_mmu.Walker.walk ~read32:(Executor.walker_read32 ctx.bus) ~ttbr ~va with
        | Error fault -> Executor.translation_fault ~iaddr ~kind ~va fault
        | Ok m ->
          Perf.add ctx.perf Perf.Walk_levels m.Sb_mmu.Walker.levels;
          ctx.tech.extra_latency <-
            ctx.tech.extra_latency
            + (m.Sb_mmu.Walker.levels * timing.Timing.walk_level_latency);
          Sb_mmu.Tlb.insert tlb
            {
              Sb_mmu.Tlb.vpn;
              ppn = m.Sb_mmu.Walker.pa_page lsr page_shift;
              ap = m.Sb_mmu.Walker.ap;
              xn = m.Sb_mmu.Walker.xn;
              asid = 0;
            };
          if Sb_mmu.Access.Ap.permits ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn
               kind priv
          then m.Sb_mmu.Walker.pa_page lor (va land page_mask)
          else Executor.translation_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission)
    end

  module X =
    Executor.Make
      (A)
      (struct
        type nonrec tech = tech

        (* split I/D TLBs; data addresses are logged for the memory stage *)
        let translate (ctx : tech Executor.t) ~va ~kind ~priv ~iaddr =
          match kind with
          | Sb_mmu.Access.Execute -> tlb_translate ctx ctx.tech.itlb ~va ~kind ~priv ~iaddr
          | Sb_mmu.Access.Read | Sb_mmu.Access.Write ->
            let pa = tlb_translate ctx ctx.tech.dtlb ~va ~kind ~priv ~iaddr in
            ctx.tech.mem_accesses <- pa :: ctx.tech.mem_accesses;
            pa

        let flush_tlb (ctx : tech Executor.t) =
          Sb_mmu.Tlb.flush ctx.tech.itlb;
          Sb_mmu.Tlb.flush ctx.tech.dtlb

        let invalidate_tlb_page (ctx : tech Executor.t) ~vpn =
          Sb_mmu.Tlb.invalidate_page ctx.tech.itlb ~vpn ~asid:0;
          Sb_mmu.Tlb.invalidate_page ctx.tech.dtlb ~vpn ~asid:0

        (* this model's TLBs are untagged: an address-space switch flushes,
           as in simulators without ASID support *)
        let asid_tagged = false

        (* every instruction is re-decoded: no code is cached *)
        let code_written _ _ = ()
        let trap _ _ = ()
        let count_page_crossings = false
      end)

  let has_mul (d : Uop.decoded) =
    List.exists
      (function Uop.Alu { op = Uop.Mul; _ } -> true | _ -> false)
      d.Uop.uops

  (* Drive one instruction through the event pipeline. *)
  let step_insn (ctx : tech Executor.t) =
    let st = ctx.tech in
    let pc = ctx.cpu.Cpu.pc in
    Event_queue.schedule st.events ~time:st.cycles Fetch;
    let rec drain () =
      match Event_queue.pop st.events with
      | None -> ()
      | Some (t, stage) ->
        (match stage with
        | Fetch ->
          st.extra_latency <- 0;
          let pa = X.fetch_pa ctx pc in
          let latency =
            timing.Timing.fetch_latency + st.extra_latency
            + (if Cache_model.access st.icache pa then timing.Timing.cache_hit_latency
               else timing.Timing.cache_miss_latency)
          in
          Event_queue.schedule st.events ~time:(t + latency) Decode_stage
        | Decode_stage ->
          st.extra_latency <- 0;
          let d = X.decode ctx pc in
          Event_queue.schedule st.events
            ~time:(t + timing.Timing.decode_latency + st.extra_latency)
            (Execute_stage d)
        | Execute_stage d ->
          st.extra_latency <- 0;
          st.mem_accesses <- [];
          X.exec_insn ctx d;
          let latency =
            (if has_mul d then timing.Timing.mul_latency
             else timing.Timing.execute_latency)
            + st.extra_latency
          in
          Event_queue.schedule st.events ~time:(t + latency) Mem_stage
        | Mem_stage ->
          let latency =
            List.fold_left
              (fun acc pa ->
                acc
                + (if Cache_model.access st.dcache pa then
                     timing.Timing.cache_hit_latency
                   else timing.Timing.cache_miss_latency))
              0 st.mem_accesses
          in
          Event_queue.schedule st.events ~time:(t + latency) Writeback
        | Writeback -> st.cycles <- t + 1);
        drain ()
    in
    drain ()

  let take_exception (ctx : tech Executor.t) f =
    Executor.deliver ctx f;
    ctx.tech.cycles <- ctx.tech.cycles + timing.Timing.exception_latency

  let execute (ctx : tech Executor.t) ~max_insns =
    let benchdev = ctx.machine.Machine.benchdev in
    let stop =
      Executor.execute ctx (fun () ->
          let steps = ref 0 in
          while !steps < max_insns do
            if Sb_mem.Benchdev.sync_pending benchdev then Executor.phase_sync ctx;
            if Machine.irq_pending ctx.machine then take_exception ctx (Executor.irq ctx)
            else begin
              (try step_insn ctx
               with Executor.Guest_fault f ->
                 Event_queue.clear ctx.tech.events;
                 take_exception ctx f);
              incr steps;
              Executor.tick ctx 1
            end
          done;
          Run_result.Insn_limit)
    in
    (* a reused context must not inherit stages of a stopped pipeline *)
    Event_queue.clear ctx.tech.events;
    cycles_of_last_run := ctx.tech.cycles;
    stop

  let last_cycles () = !cycles_of_last_run

  (* Keep the last run's TLBs and cache models while the machine is
     unchanged (see {!Executor.session}). *)
  let run = Executor.run ~name (Executor.session ()) ~make ~execute
end
