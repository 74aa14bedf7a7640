(** VLX-32 instruction set: the x86-flavoured second architecture.

    VLX-32 has 8 general registers (r5 = stack pointer, r6 = link register
    by convention) and a variable-length encoding of 1 to 6 bytes.  Like the
    paper's x86 port it has {e no} non-privileged memory access — the
    Nonprivileged Access benchmark is a no-op on this architecture — and its
    "safe coprocessor access" is COPRESET, the analog of resetting the x87
    coprocessor.  The canonical undefined instruction is the two-byte
    [0x0F 0x0B] pair, mirroring x86 [UD2]. *)

type reg = int
(** 0..7. *)

type insn =
  | Nop
  | Halt
  | Wfi
  | Alu_rr of Sb_isa.Uop.alu_op * reg * reg * reg    (** rd, rn, rm *)
  | Alu_ri of Sb_isa.Uop.alu_op * reg * reg * int    (** rd, rn, imm32 *)
  | Movi of reg * int
  | Movi_sym of reg * string    (** rd := label address *)
  | Mov of reg * reg
  | Cmp_rr of reg * reg
  | Cmp_ri of reg * int
  | Jmp of string
  | Call of string              (** link register convention: r6 *)
  | Jcc of Sb_isa.Uop.cond * string
  | Jmp_r of reg
  | Call_r of reg
  | Load of reg * reg * int     (** rd, \[rn + simm16\] *)
  | Store of reg * reg * int
  | Loadb of reg * reg * int
  | Storeb of reg * reg * int
  | Svc of int                  (** imm8 *)
  | Eret
  | Ud2
  | Cpr of reg * int            (** rd := coprocessor\[creg\] *)
  | Cpw of int * reg            (** coprocessor\[creg\] := rs *)
  | Copreset                    (** safe coprocessor access: FPCTL := 0 *)
  | Tlbi of reg
  | Tlbiall

val sp : reg
val lr : reg

val li : reg -> int -> insn list
val la : reg -> string -> insn list

val size : insn -> int

(** Encoding tables shared with the decoder. *)

val alu_of_index : int -> Sb_isa.Uop.alu_op option
val cond_of_byte : int -> Sb_isa.Uop.cond option

module Encoder : Sb_asm.Assembler.ENCODER with type insn = insn

module Asm : sig
  val assemble :
    ?base:int -> ?entry:string -> insn Sb_asm.Assembler.item list -> Sb_asm.Program.t

  val layout : ?base:int -> insn Sb_asm.Assembler.item list -> (string * int) list
end
