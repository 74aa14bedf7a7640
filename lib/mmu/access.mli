(** Access kinds, privileges and translation faults shared by the walker,
    the TLBs and every engine's memory path. *)

type kind = Read | Write | Execute

type privilege = User | Kernel

type fault =
  | Translation  (** no valid mapping for the address *)
  | Permission   (** mapping exists but forbids this access *)

(** Access-permission field values, mirroring a simplified ARM AP encoding. *)
module Ap : sig
  (** [kernel_only] = 0: kernel RW, user no access.
      [user_read] = 1: kernel RW, user RO.
      [user_full] = 2: kernel RW, user RW.
      [kernel_read] = 3: kernel RO, user no access. *)

  val kernel_only : int

  val user_read : int
  val user_full : int
  val kernel_read : int

  val permits : ap:int -> xn:bool -> kind -> privilege -> bool
end
