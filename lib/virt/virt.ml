open Sb_isa
open Sb_sim

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

(* Flat "hardware" translation cache: one packed slot per virtual page of the
   whole 32-bit space.  Layout:
   [gen | asid:8 | ppn:20 | ap:2 | xn:1 | valid:1] — a tagged hardware TLB,
   so address-space switches need no flush. *)
let vpn_space = 1 lsl 20

module Config = struct
  type t = { vm_exit_rounds : int; name_suffix : string }

  let virt = { vm_exit_rounds = 96; name_suffix = "virt" }
  let native = { vm_exit_rounds = 0; name_suffix = "native" }
end

module Make_configured
    (A : Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) =
struct
  let cfg = C.config
  let is_native = cfg.Config.vm_exit_rounds = 0

  let name = Printf.sprintf "%s-%s" cfg.Config.name_suffix A.name

  let features =
    if is_native then
      [
        ("Execution Model", "Direct");
        ("Memory Access", "Direct");
        ("Code Generation", "None");
        ("Control Flow", "Direct");
        ("Interrupts", "Direct");
        ("Synchronous Exceptions", "Direct");
        ("Undefined Instruction", "Direct");
      ]
    else
      [
        ("Execution Model", "Direct");
        ("Memory Access", "Direct (HW TLB)");
        ("Code Generation", "None");
        ("Control Flow", "Direct");
        ("Interrupts", "Via Emulation Layer");
        ("Synchronous Exceptions", "Direct");
        ("Undefined Instruction", "Hypercall");
      ]

  type tech = {
    host_tlb : int array;
    mutable tlb_gen : int;
    decode_cache : (int, Uop.decoded option array) Hashtbl.t;
    (* current-page fetch shortcut: hardware streams fetches within a page *)
    mutable cur_fetch_page : int;
    mutable cur_fetch_arr : Uop.decoded option array;
    shadow_regs : int array;
    shadow_cop : int array;
    mutable exit_token : int;
  }

  let empty_arr : Uop.decoded option array = [||]

  let make () =
    {
      host_tlb = Array.make vpn_space 0;
      tlb_gen = 1;
      decode_cache = Hashtbl.create 64;
      cur_fetch_page = -1;
      cur_fetch_arr = empty_arr;
      shadow_regs = Array.make 16 0;
      shadow_cop = Array.make Cregs.count 0;
      exit_token = 0;
    }

  (* ------------- vm exits ---------------------------------------------- *)

  let vm_exit (ctx : tech Executor.t) reason =
    if not is_native then begin
      Perf.incr ctx.perf Perf.Vm_exits;
      let cpu = ctx.cpu in
      let st = ctx.tech in
      for round = 1 to cfg.Config.vm_exit_rounds do
        (* world switch out: save vCPU state *)
        Array.blit cpu.Cpu.regs 0 st.shadow_regs 0 16;
        Array.blit cpu.Cpu.cop 0 st.shadow_cop 0 Cregs.count;
        (* emulation-layer dispatch *)
        st.exit_token <-
          (st.exit_token + st.shadow_regs.((reason + round) land 15)
          + st.shadow_cop.((reason + round) mod Cregs.count))
          land max_int;
        (* world switch in: restore *)
        Array.blit st.shadow_regs 0 cpu.Cpu.regs 0 16;
        Array.blit st.shadow_cop 0 cpu.Cpu.cop 0 Cregs.count
      done
    end

  (* ------------- hardware translation cache ----------------------------- *)

  let pack st ~ppn ~ap ~xn ~asid =
    (st.tlb_gen lsl 32)
    lor ((asid land 0xFF) lsl 24)
    lor (ppn lsl 4)
    lor (ap lsl 2)
    lor (Bool.to_int xn lsl 1)
    lor 1

  (* index mixes the ASID; for a fixed ASID the mapping is injective in the
     vpn, so matching the stored ASID tag is sufficient to validate a hit *)
  let slot_index ~vpn ~asid = (vpn lxor ((asid land 0xFF) * 0x9E37)) land (vpn_space - 1)

  let host_translate (ctx : tech Executor.t) ~va ~kind ~priv ~iaddr =
    if not (Cpu.mmu_enabled ctx.cpu) then va
    else begin
      let st = ctx.tech in
      let vpn = va lsr page_shift in
      let asid = ctx.cpu.Cpu.cop.(Cregs.asid) in
      let slot = st.host_tlb.(slot_index ~vpn ~asid) in
      if
        slot land 1 = 1
        && slot lsr 32 = st.tlb_gen
        && (slot lsr 24) land 0xFF = asid land 0xFF
      then begin
        let ap = (slot lsr 2) land 3 in
        let xn = slot land 2 <> 0 in
        if Sb_mmu.Access.Ap.permits ~ap ~xn kind priv then
          (((slot lsr 4) land 0xFFFFF) lsl page_shift) lor (va land page_mask)
        else Executor.translation_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
      end
      else begin
        (* hardware walk: free of simulator bookkeeping beyond the loads *)
        Perf.incr ctx.perf Perf.Mmu_walks;
        let ttbr = ctx.cpu.Cpu.cop.(Cregs.ttbr) in
        match Sb_mmu.Walker.walk ~read32:(Executor.walker_read32 ctx.bus) ~ttbr ~va with
        | Error fault -> Executor.translation_fault ~iaddr ~kind ~va fault
        | Ok m ->
          Perf.add ctx.perf Perf.Walk_levels m.Sb_mmu.Walker.levels;
          let ppn = m.Sb_mmu.Walker.pa_page lsr page_shift in
          st.host_tlb.(slot_index ~vpn ~asid) <-
            pack st ~ppn ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn ~asid;
          if Sb_mmu.Access.Ap.permits ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn
               kind priv
          then m.Sb_mmu.Walker.pa_page lor (va land page_mask)
          else Executor.translation_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission
      end
    end

  module X =
    Executor.Make
      (A)
      (struct
        type nonrec tech = tech

        (* under virtualization device pages are not mapped for direct
           access: touching one traps to the emulation layer, as MMIO does
           under a hypervisor *)
        let translate =
          if is_native then host_translate
          else fun (ctx : tech Executor.t) ~va ~kind ~priv ~iaddr ->
            let pa = host_translate ctx ~va ~kind ~priv ~iaddr in
            (match kind with
            | Sb_mmu.Access.Execute -> ()
            | Sb_mmu.Access.Read ->
              if not (Sb_mem.Bus.is_ram ctx.bus pa) then vm_exit ctx 1
            | Sb_mmu.Access.Write ->
              if not (Sb_mem.Bus.is_ram ctx.bus pa) then vm_exit ctx 2);
            pa

        let flush_tlb (ctx : tech Executor.t) =
          ctx.tech.tlb_gen <- ctx.tech.tlb_gen + 1;
          ctx.tech.cur_fetch_page <- -1

        let invalidate_tlb_page (ctx : tech Executor.t) ~vpn =
          ctx.tech.host_tlb.(slot_index ~vpn ~asid:ctx.cpu.Cpu.cop.(Cregs.asid)) <- 0

        (* tagged hardware TLB: no flush on address-space switch *)
        let asid_tagged = true

        let code_written (ctx : tech Executor.t) ppage =
          Hashtbl.remove ctx.tech.decode_cache ppage;
          if ctx.tech.cur_fetch_page = ppage then begin
            ctx.tech.cur_fetch_page <- -1;
            ctx.tech.cur_fetch_arr <- empty_arr
          end

        (* undefined instructions and WFI trap to the hypervisor before
           being reflected back into the guest *)
        let trap ctx = function
          | Executor.Undefined_insn -> vm_exit ctx 3
          | Executor.Wait_for_interrupt -> vm_exit ctx 4

        let count_page_crossings = false
      end)

  (* ------------- fetch --------------------------------------------------- *)

  (* hardware fetch: straight to the host TLB, no emulation-layer hooks *)
  let fetch_decode (ctx : tech Executor.t) va =
    let st = ctx.tech in
    let pa =
      host_translate ctx ~va ~kind:Sb_mmu.Access.Execute ~priv:ctx.cpu.Cpu.mode ~iaddr:va
    in
    if not (Sb_mem.Bus.is_ram ctx.bus pa) then
      Executor.bus_fault ~iaddr:va ~kind:Sb_mmu.Access.Execute ~va ();
    let ppage = pa lsr page_shift in
    let arr =
      if st.cur_fetch_page = ppage then st.cur_fetch_arr
      else begin
        let arr =
          match Hashtbl.find_opt st.decode_cache ppage with
          | Some arr -> arr
          | None ->
            let arr = Array.make page_size None in
            Hashtbl.add st.decode_cache ppage arr;
            Executor.mark_code_page ctx ppage;
            arr
        in
        st.cur_fetch_page <- ppage;
        st.cur_fetch_arr <- arr;
        arr
      end
    in
    match Array.unsafe_get arr (pa land page_mask) with
    | Some d when d.Uop.addr = va -> d
    | _ ->
      let d = X.decode ctx va in
      (* never cache an instruction that straddles a page: its tail bytes
         live on a page whose invalidation would not reach this entry *)
      if (va + d.Uop.length - 1) lsr page_shift <> va lsr page_shift then d
      else begin
        arr.(pa land page_mask) <- Some d;
        Executor.mark_code_page ctx ppage;
        d
      end

  (* ------------- execution ---------------------------------------------- *)

  let execute (ctx : tech Executor.t) ~max_insns =
    let benchdev = ctx.machine.Machine.benchdev in
    Executor.execute ctx (fun () ->
        let steps = ref 0 in
        while !steps < max_insns do
          if Sb_mem.Benchdev.sync_pending benchdev then Executor.phase_sync ctx;
          if Machine.irq_pending ctx.machine then begin
            (* interrupt injection goes through the virtualization layer *)
            vm_exit ctx 5;
            Executor.deliver ctx (Executor.irq ctx)
          end
          else begin
            (try X.exec_insn ctx (fetch_decode ctx ctx.cpu.Cpu.pc)
             with Executor.Guest_fault f -> Executor.deliver ctx f);
            incr steps;
            Executor.tick ctx 1
          end
        done;
        Run_result.Insn_limit)

  (* Keep the last run's host TLB and decode cache while the machine is
     unchanged (see {!Executor.session}). *)
  let run = Executor.run ~name (Executor.session ()) ~make ~execute
end

module Make_virt (A : Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.virt
    end)

module Make_native (A : Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.native
    end)
