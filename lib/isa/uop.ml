type cond = Always | Eq | Ne | Lt | Ge | Ltu | Geu

type width = W8 | W16 | W32

type alu_op = Add | Sub | And_ | Orr | Xor | Lsl | Lsr | Asr | Mul

type operand = Reg of int | Imm of int

type branch_target = Direct of int | Indirect of int

type t =
  | Nop
  | Alu of {
      op : alu_op;
      rd : int option;
      rn : operand;
      rm : operand;
      set_flags : bool;
    }
  | Load of { width : width; rd : int; base : operand; offset : int; user : bool }
  | Store of { width : width; rs : int; base : operand; offset : int; user : bool }
  | Branch of { cond : cond; target : branch_target; link : int option }
  | Svc of int
  | Undef
  | Eret
  | Cop_read of { rd : int; creg : int }
  | Cop_write of { creg : int; src : operand }
  | Tlb_inv_page of int
  | Tlb_inv_all
  | Wfi
  | Halt

type decoded = {
  addr : int;
  length : int;
  uops : t list;
  terminates_block : bool;
}

let terminates_block = function
  | Branch _ | Svc _ | Undef | Eret | Wfi | Halt -> true
  | Cop_write _ | Tlb_inv_page _ | Tlb_inv_all ->
    (* may change address translation or privilege; end the block so the
       dispatch loop re-resolves the execution environment *)
    true
  | Nop | Alu _ | Load _ | Store _ | Cop_read _ -> false

let make_decoded ~addr ~length uops =
  {
    addr;
    length;
    uops;
    terminates_block = List.exists terminates_block uops;
  }

let eval_cond cond ~n ~z ~c ~v =
  match cond with
  | Always -> true
  | Eq -> z
  | Ne -> not z
  | Lt -> n <> v
  | Ge -> n = v
  | Ltu -> not c
  | Geu -> c

let pp_cond ppf cond =
  let s =
    match cond with
    | Always -> "al"
    | Eq -> "eq"
    | Ne -> "ne"
    | Lt -> "lt"
    | Ge -> "ge"
    | Ltu -> "ltu"
    | Geu -> "geu"
  in
  Format.pp_print_string ppf s

let pp_alu ppf op =
  let s =
    match op with
    | Add -> "add"
    | Sub -> "sub"
    | And_ -> "and"
    | Orr -> "orr"
    | Xor -> "xor"
    | Lsl -> "lsl"
    | Lsr -> "lsr"
    | Asr -> "asr"
    | Mul -> "mul"
  in
  Format.pp_print_string ppf s

let pp_operand ppf = function
  | Reg r -> Format.fprintf ppf "r%d" r
  | Imm i -> Format.fprintf ppf "#%d" i

let pp_width ppf w =
  Format.pp_print_string ppf (match w with W8 -> "b" | W16 -> "h" | W32 -> "")

let pp ppf = function
  | Nop -> Format.pp_print_string ppf "nop"
  | Alu { op; rd; rn; rm; set_flags } ->
    let dest =
      match rd with Some r -> Printf.sprintf "r%d" r | None -> "_"
    in
    Format.fprintf ppf "%a%s %s, %a, %a" pp_alu op
      (if set_flags then "s" else "")
      dest pp_operand rn pp_operand rm
  | Load { width; rd; base; offset; user } ->
    Format.fprintf ppf "ldr%a%s r%d, [%a, #%d]" pp_width width
      (if user then "t" else "")
      rd pp_operand base offset
  | Store { width; rs; base; offset; user } ->
    Format.fprintf ppf "str%a%s r%d, [%a, #%d]" pp_width width
      (if user then "t" else "")
      rs pp_operand base offset
  | Branch { cond; target; link } ->
    let mnemonic = if link <> None then "call" else "b" in
    (match target with
    | Direct addr -> Format.fprintf ppf "%s.%a %a" mnemonic pp_cond cond Sb_util.U32.pp addr
    | Indirect r -> Format.fprintf ppf "%s.%a r%d" mnemonic pp_cond cond r)
  | Svc n -> Format.fprintf ppf "svc #%d" n
  | Undef -> Format.pp_print_string ppf "udf"
  | Eret -> Format.pp_print_string ppf "eret"
  | Cop_read { rd; creg } -> Format.fprintf ppf "mrc r%d, cp%d" rd creg
  | Cop_write { creg; src } -> Format.fprintf ppf "mcr cp%d, %a" creg pp_operand src
  | Tlb_inv_page r -> Format.fprintf ppf "tlbi r%d" r
  | Tlb_inv_all -> Format.pp_print_string ppf "tlbiall"
  | Wfi -> Format.pp_print_string ppf "wfi"
  | Halt -> Format.pp_print_string ppf "halt"
