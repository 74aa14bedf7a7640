(** Symbolic evaluation of micro-op sequences over an unknown initial
    machine state.

    The shared term library behind both static checkers: the DBT IR pass
    validator ({!Ir_check}) proves each optimiser pass transparent by
    running the before/after IR through [exec] and comparing states; the
    translation validator ({!Tv}) does the same for the decoder's
    reference semantics against the DBT's emitted IR.

    Registers and flags become expression trees over the initial state;
    loads and coprocessor reads become opaque terms indexed by their
    position in the effect sequence, so "the same load" compares equal
    across two runs.  {!binop} folds constants through
    {!Sb_sim.Alu_eval} (the evaluator the optimiser and every engine
    share), applies the peephole's algebraic identities, and normalises
    shift amounts to the architecture's [land 0xFF] / saturate semantics —
    every rule exact on u32, so structural equality of two states is a
    sound (per-block) proof of architectural equality. *)

type expr = private { id : int; node : node }
(** Terms are hash-consed: structurally equal terms are physically equal
    and carry the same unique [id], making state comparison O(1) per
    component even when the unfolded tree is exponential (DAG-shaped value
    graphs).  Build terms with {!const}/{!binop}/{!exec} only. *)

and node =
  | Const of int
  | Init of int  (** initial value of guest register r *)
  | Flag0 of int  (** initial flag; 0=n 1=z 2=c 3=v *)
  | Pc0
  | Binop of Sb_isa.Uop.alu_op * expr * expr
  | Flag of int * Sb_isa.Uop.alu_op * expr * expr
      (** flag f after a set_flags op *)
  | Mem of int  (** value produced by effect #i (a load) *)
  | Cop of int  (** value produced by effect #i (a coprocessor read) *)
  | Ite of guard * expr * expr

and guard = Sb_isa.Uop.cond * expr * expr * expr * expr

type event =
  | E_load of Sb_isa.Uop.width * expr * bool
  | E_store of Sb_isa.Uop.width * expr * expr * bool
  | E_cop_read of int
  | E_cop_write of int * expr
  | E_svc of int
  | E_undef
  | E_eret
  | E_tlb_page of expr
  | E_tlb_all
  | E_wfi
  | E_halt

type state = {
  regs : expr array;  (** 16 entries; architectures with fewer ignore the rest *)
  flags : expr array;  (** 4 entries: n z c v *)
  mutable pc : expr;
  mutable events : event list;  (** newest first *)
  mutable n_events : int;
}

val init_state : ?pc:expr -> unit -> state
(** Fresh symbolic state; [pc] defaults to the opaque {!Pc0} (right for
    pass validation, where both sides share it) and can be seeded with the
    concrete next-pc when modelling a known instruction stream. *)

val const : int -> expr

val operand : state -> Sb_isa.Uop.operand -> expr

val exec : state -> va:int -> len:int -> Sb_isa.Uop.t -> unit
(** Execute one micro-op of the instruction at [va] (encoded length
    [len]) against the state.  Mirrors the interpreter's reference
    semantics, including out-of-range coprocessor registers raising the
    undefined exception. *)

val diff : ?labels:string * string -> state -> state -> string option
(** First differing component (register, flag, pc, or ordered effect),
    rendered with both symbolic values; [labels] names the two sides in
    the rendering (default ["before"]/["after"]). *)
