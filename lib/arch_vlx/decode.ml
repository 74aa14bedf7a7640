open Sb_isa

let lr = Insn.lr

(* Immediate bytes are let-bound so they are fetched in address order
   (OCaml evaluates operands right to left): when an immediate runs into an
   unmapped page, the abort then reports the first unmapped byte. *)
let fetch16 fetch8 a =
  let b0 = fetch8 a in
  let b1 = fetch8 (a + 1) in
  b0 lor (b1 lsl 8)

let fetch32 fetch8 a =
  let b0 = fetch8 a in
  let b1 = fetch8 (a + 1) in
  let b2 = fetch8 (a + 2) in
  let b3 = fetch8 (a + 3) in
  b0 lor (b1 lsl 8) lor (b2 lsl 16) lor (b3 lsl 24)

let simm16 v = Sb_util.U32.to_signed (Sb_util.U32.sign_extend ~bits:16 v)

let hi_reg b = (b lsr 4) land 7
let lo_reg b = b land 7

let decode ~fetch8 ~addr =
  let op = fetch8 addr in
  let make length uops = Uop.make_decoded ~addr ~length uops in
  let one length uop = make length [ uop ] in
  match op with
  | 0x00 -> one 1 Uop.Nop
  | 0x01 -> one 1 Uop.Halt
  | 0x02 -> one 1 Uop.Wfi
  | _ when op >= 0x10 && op <= 0x18 -> (
    match Insn.alu_of_index (op - 0x10) with
    | Some alu ->
      let regs = fetch8 (addr + 1) in
      let rm = fetch8 (addr + 2) land 7 in
      one 3
        (Uop.Alu
           {
             op = alu;
             rd = Some (hi_reg regs);
             rn = Reg (lo_reg regs);
             rm = Reg rm;
             set_flags = false;
           })
    | None -> one 1 Uop.Undef)
  | _ when op >= 0x20 && op <= 0x28 -> (
    match Insn.alu_of_index (op - 0x20) with
    | Some alu ->
      let regs = fetch8 (addr + 1) in
      let imm = Sb_util.U32.to_signed (fetch32 fetch8 (addr + 2)) in
      one 6
        (Uop.Alu
           {
             op = alu;
             rd = Some (hi_reg regs);
             rn = Reg (lo_reg regs);
             rm = Imm imm;
             set_flags = false;
           })
    | None -> one 1 Uop.Undef)
  | 0x30 ->
    let rd = hi_reg (fetch8 (addr + 1)) in
    let imm = fetch32 fetch8 (addr + 2) in
    one 6 (Uop.Alu { op = Orr; rd = Some rd; rn = Imm 0; rm = Imm imm; set_flags = false })
  | 0x31 ->
    let regs = fetch8 (addr + 1) in
    one 2
      (Uop.Alu
         { op = Orr; rd = Some (hi_reg regs); rn = Reg (lo_reg regs); rm = Imm 0; set_flags = false })
  | 0x32 ->
    let regs = fetch8 (addr + 1) in
    one 2
      (Uop.Alu
         { op = Sub; rd = None; rn = Reg (hi_reg regs); rm = Reg (lo_reg regs); set_flags = true })
  | 0x33 ->
    let rn = hi_reg (fetch8 (addr + 1)) in
    let imm = Sb_util.U32.to_signed (fetch32 fetch8 (addr + 2)) in
    one 6 (Uop.Alu { op = Sub; rd = None; rn = Reg rn; rm = Imm imm; set_flags = true })
  | 0x40 ->
    let rel = Sb_util.U32.to_signed (fetch32 fetch8 (addr + 1)) in
    one 5
      (Uop.Branch
         { cond = Always; target = Direct ((addr + 5 + rel) land 0xFFFF_FFFF); link = None })
  | 0x41 ->
    let rel = Sb_util.U32.to_signed (fetch32 fetch8 (addr + 1)) in
    one 5
      (Uop.Branch
         { cond = Always; target = Direct ((addr + 5 + rel) land 0xFFFF_FFFF); link = Some lr })
  | 0x42 -> (
    match Insn.cond_of_byte (fetch8 (addr + 1)) with
    | Some cond ->
      let rel = Sb_util.U32.to_signed (fetch32 fetch8 (addr + 2)) in
      one 6
        (Uop.Branch { cond; target = Direct ((addr + 6 + rel) land 0xFFFF_FFFF); link = None })
    | None -> one 1 Uop.Undef)
  | 0x43 -> one 2 (Uop.Branch { cond = Always; target = Indirect (fetch8 (addr + 1) land 7); link = None })
  | 0x44 ->
    one 2 (Uop.Branch { cond = Always; target = Indirect (fetch8 (addr + 1) land 7); link = Some lr })
  | 0x50 ->
    let regs = fetch8 (addr + 1) in
    let off = simm16 (fetch16 fetch8 (addr + 2)) in
    one 4 (Uop.Load { width = W32; rd = hi_reg regs; base = Reg (lo_reg regs); offset = off; user = false })
  | 0x51 ->
    let regs = fetch8 (addr + 1) in
    let off = simm16 (fetch16 fetch8 (addr + 2)) in
    one 4 (Uop.Store { width = W32; rs = hi_reg regs; base = Reg (lo_reg regs); offset = off; user = false })
  | 0x52 ->
    let regs = fetch8 (addr + 1) in
    let off = simm16 (fetch16 fetch8 (addr + 2)) in
    one 4 (Uop.Load { width = W8; rd = hi_reg regs; base = Reg (lo_reg regs); offset = off; user = false })
  | 0x53 ->
    let regs = fetch8 (addr + 1) in
    let off = simm16 (fetch16 fetch8 (addr + 2)) in
    one 4 (Uop.Store { width = W8; rs = hi_reg regs; base = Reg (lo_reg regs); offset = off; user = false })
  | 0x60 -> one 2 (Uop.Svc (fetch8 (addr + 1)))
  | 0x61 -> one 1 Uop.Eret
  | 0x62 ->
    let rd = hi_reg (fetch8 (addr + 1)) in
    one 3 (Uop.Cop_read { rd; creg = fetch8 (addr + 2) })
  | 0x63 ->
    let rs = hi_reg (fetch8 (addr + 1)) in
    one 3 (Uop.Cop_write { creg = fetch8 (addr + 2); src = Reg rs })
  | 0x64 -> one 2 (Uop.Tlb_inv_page (fetch8 (addr + 1) land 7))
  | 0x65 -> one 1 Uop.Tlb_inv_all
  | 0x66 -> one 1 (Uop.Cop_write { creg = Sb_isa.Cregs.fpctl; src = Imm 0 })
  | 0x0F -> if fetch8 (addr + 1) = 0x0B then one 2 Uop.Undef else one 1 Uop.Undef
  | _ -> one 1 Uop.Undef
