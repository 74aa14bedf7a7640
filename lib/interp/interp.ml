open Sb_isa
open Sb_sim

module Config = struct
  type t = { tlb_entries : int; predecode : bool; front_cache : bool }

  let default = { tlb_entries = 256; predecode = true; front_cache = true }
end

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = page_size - 1

(* direct-mapped fetch front cache: virtual page -> predecoded page array *)
let fetch_front_bits = 6
let fetch_front_size = 1 lsl fetch_front_bits
let fetch_front_mask = fetch_front_size - 1

module Make_configured
    (A : Arch_sig.ARCH) (C : sig
      val config : Config.t
    end) =
struct
  let name = Printf.sprintf "interp-%s" A.name

  let features =
    [
      ("Execution Model", "Fast Interpreter");
      ("Memory Access", "Single Level Cache");
      ("Code Generation", "None");
      ("Control Flow", "Interpreted");
      ("Interrupts", "Insn. Boundaries");
      ("Synchronous Exceptions", "Interpreted");
      ("Undefined Instruction", "Interpreted");
    ]

  (* One slot of the fetch front cache.  A hit proves: this virtual page
     translated to the page whose predecode array is [fs_arr], with execute
     permission, under this ASID and privilege, and no translation-affecting
     event ([fs_gen]) has happened since.  Self-modifying code needs no tag:
     SMC invalidation clears the array in place, so stale entries read as
     [None] and fall back to the slow path. *)
  type fetch_slot = {
    mutable fs_vpn : int;  (* -1 = empty *)
    mutable fs_asid : int;
    mutable fs_gen : int;
    mutable fs_mode : Sb_mmu.Access.privilege;
    mutable fs_arr : Uop.decoded option array;
  }

  type tech = {
    tlb : Sb_mmu.Tlb.t;
    decode_cache : (int, Uop.decoded option array) Hashtbl.t;
    fetch_front : fetch_slot array;
    mutable fetch_gen : int;
        (* bumped on any event that may change va->pa mappings, mirroring
           the DBT's chain_gen *)
  }

  let make () =
    {
      tlb = Sb_mmu.Tlb.create ~entries:C.config.Config.tlb_entries;
      decode_cache = Hashtbl.create 64;
      fetch_front =
        Array.init fetch_front_size (fun _ ->
            {
              fs_vpn = -1;
              fs_asid = 0;
              fs_gen = 0;
              fs_mode = Sb_mmu.Access.Kernel;
              fs_arr = [||];
            });
      fetch_gen = 0;
    }

  module X =
    Executor.Make
      (A)
      (struct
        type nonrec tech = tech

        (* single unified, ASID-tagged TLB *)
        let translate (ctx : tech Executor.t) ~va ~kind ~priv ~iaddr =
          if not (Cpu.mmu_enabled ctx.cpu) then va
          else begin
            let tlb = ctx.tech.tlb in
            let vpn = va lsr page_shift in
            let asid = ctx.cpu.Cpu.cop.(Cregs.asid) in
            match Sb_mmu.Tlb.lookup tlb ~vpn ~asid with
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
                Sb_mmu.Tlb.insert tlb
                  {
                    Sb_mmu.Tlb.vpn;
                    ppn = m.Sb_mmu.Walker.pa_page lsr page_shift;
                    ap = m.Sb_mmu.Walker.ap;
                    xn = m.Sb_mmu.Walker.xn;
                    asid;
                  };
                if Sb_mmu.Access.Ap.permits ~ap:m.Sb_mmu.Walker.ap ~xn:m.Sb_mmu.Walker.xn
                     kind priv
                then m.Sb_mmu.Walker.pa_page lor (va land page_mask)
                else Executor.translation_fault ~iaddr ~kind ~va Sb_mmu.Access.Permission)
          end

        let flush_tlb (ctx : tech Executor.t) =
          Sb_mmu.Tlb.flush ctx.tech.tlb;
          ctx.tech.fetch_gen <- ctx.tech.fetch_gen + 1

        let invalidate_tlb_page (ctx : tech Executor.t) ~vpn =
          Sb_mmu.Tlb.invalidate_page ctx.tech.tlb ~vpn ~asid:ctx.cpu.Cpu.cop.(Cregs.asid);
          ctx.tech.fetch_gen <- ctx.tech.fetch_gen + 1

        let asid_tagged = true

        (* clear in place: the page array is reused when the code is
           re-decoded, as a pre-decoding interpreter would *)
        let code_written (ctx : tech Executor.t) ppage =
          match Hashtbl.find_opt ctx.tech.decode_cache ppage with
          | Some arr -> Array.fill arr 0 page_size None
          | None -> ()

        let trap _ _ = ()
        let count_page_crossings = true
      end)

  let use_fetch_front = C.config.Config.predecode && C.config.Config.front_cache

  let fetch_decode_slow (ctx : tech Executor.t) va =
    let pa = X.fetch_pa ctx va in
    if not C.config.Config.predecode then X.decode ctx va
    else begin
      let ppage = pa lsr page_shift in
      let arr =
        match Hashtbl.find_opt ctx.tech.decode_cache ppage with
        | Some arr -> arr
        | None ->
          let arr = Array.make page_size None in
          Hashtbl.add ctx.tech.decode_cache ppage arr;
          Executor.mark_code_page ctx ppage;
          arr
      in
      if use_fetch_front then begin
        (* the translation above vouched for (vpn, asid, mode) -> arr with
           execute permission; remember it for subsequent fetches *)
        let vpn = va lsr page_shift in
        let slot = ctx.tech.fetch_front.(vpn land fetch_front_mask) in
        slot.fs_vpn <- vpn;
        slot.fs_asid <- ctx.cpu.Cpu.cop.(Cregs.asid);
        slot.fs_gen <- ctx.tech.fetch_gen;
        slot.fs_mode <- ctx.cpu.Cpu.mode;
        slot.fs_arr <- arr
      end;
      match arr.(pa land page_mask) with
      | Some d when d.Uop.addr = va -> d
      | _ ->
        let d = X.decode ctx va in
        (* never cache an instruction that straddles a page: its tail bytes
           live on a page whose invalidation would not reach this entry *)
        if (va + d.Uop.length - 1) lsr page_shift <> va lsr page_shift then d
        else begin
          arr.(pa land page_mask) <- Some d;
          (* the page holds decoded state again: re-arm write detection *)
          Executor.mark_code_page ctx ppage;
          d
        end
    end

  (* Fast path: one tag compare skips the TLB probe, the permission check
     and the decode-cache hash lookup for fetches that stay on a recently
     fetched page — the common case for straight-line code and tight
     loops. *)
  let fetch_decode (ctx : tech Executor.t) va =
    if not use_fetch_front then fetch_decode_slow ctx va
    else begin
      let st = ctx.tech in
      let vpn = va lsr page_shift in
      let slot = Array.unsafe_get st.fetch_front (vpn land fetch_front_mask) in
      if
        slot.fs_vpn = vpn
        && slot.fs_gen = st.fetch_gen
        && slot.fs_asid = ctx.cpu.Cpu.cop.(Cregs.asid)
        && slot.fs_mode = ctx.cpu.Cpu.mode
      then begin
        match slot.fs_arr.(va land page_mask) with
        | Some d when d.Uop.addr = va ->
          Perf.incr ctx.perf Perf.Front_cache_hits;
          d
        | _ -> fetch_decode_slow ctx va
      end
      else fetch_decode_slow ctx va
    end

  let execute (ctx : tech Executor.t) ~max_insns =
    let benchdev = ctx.machine.Machine.benchdev in
    Executor.execute ctx (fun () ->
        let steps = ref 0 in
        while !steps < max_insns do
          if Sb_mem.Benchdev.sync_pending benchdev then Executor.phase_sync ctx;
          if Machine.irq_pending ctx.machine then Executor.deliver ctx (Executor.irq ctx)
          else begin
            (try X.exec_insn ctx (fetch_decode ctx ctx.cpu.Cpu.pc)
             with Executor.Guest_fault f -> Executor.deliver ctx f);
            incr steps;
            Executor.tick ctx 1
          end
        done;
        Run_result.Insn_limit)

  (* The last run's translation state (TLB, decode cache, fetch front) is
     kept while the machine is unchanged (see {!Executor.session}). *)
  let run = Executor.run ~name (Executor.session ()) ~make ~execute
end

module Make (A : Arch_sig.ARCH) =
  Make_configured
    (A)
    (struct
      let config = Config.default
    end)
