(** Architecture-neutral micro-operation IR.

    Both guest ISAs (SBA-32 and VLX-32) decode into this IR, and every
    execution engine — interpreter, DBT, detailed model, direct execution —
    consumes it.  This is the retargetability seam: porting the simulator
    family to a new guest ISA means writing one decoder into this IR, exactly
    as porting SimBench itself means writing one support package. *)

type cond =
  | Always
  | Eq
  | Ne
  | Lt   (** signed less-than *)
  | Ge   (** signed greater-or-equal *)
  | Ltu  (** unsigned less-than *)
  | Geu  (** unsigned greater-or-equal *)

type width = W8 | W16 | W32

type alu_op = Add | Sub | And_ | Orr | Xor | Lsl | Lsr | Asr | Mul

type operand =
  | Reg of int
  | Imm of int

type branch_target =
  | Direct of int   (** absolute virtual address, resolved at decode time *)
  | Indirect of int (** register holding the target *)

type t =
  | Nop
  | Alu of {
      op : alu_op;
      rd : int option;  (** [None] discards the result (compare-only) *)
      rn : operand;
      rm : operand;
      set_flags : bool;
    }
  | Load of { width : width; rd : int; base : operand; offset : int; user : bool }
      (** [user] marks a non-privileged access (LDRT-style). *)
  | Store of { width : width; rs : int; base : operand; offset : int; user : bool }
  | Branch of { cond : cond; target : branch_target; link : int option }
      (** [link = Some r] writes the return address into register [r]. *)
  | Svc of int
  | Undef
  | Eret
  | Cop_read of { rd : int; creg : int }
  | Cop_write of { creg : int; src : operand }
  | Tlb_inv_page of int  (** register holding the VA to invalidate *)
  | Tlb_inv_all
  | Wfi
  | Halt

type decoded = {
  addr : int;     (** virtual address of the instruction *)
  length : int;   (** encoded length in bytes *)
  uops : t list;
  terminates_block : bool;
      (** true when a basic-block builder must stop after this instruction *)
}

val terminates_block : t -> bool
(** Branches, exception-raising operations and translation-affecting system
    operations end a basic block. *)

val make_decoded : addr:int -> length:int -> t list -> decoded

val eval_cond : cond -> n:bool -> z:bool -> c:bool -> v:bool -> bool
(** Architectural condition evaluation shared by every engine. *)

val pp : Format.formatter -> t -> unit
