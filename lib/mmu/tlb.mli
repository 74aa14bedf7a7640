(** Software TLB: a direct-mapped cache of 4 KiB translations.

    Engines keep one (or several, for split I/D) of these.  Geometry is set
    at creation so the TLB ablation bench can sweep sizes.  Entries carry the
    walk attributes; permission checks happen on every lookup, so a single
    entry serves both privilege levels safely.

    Entries are tagged with the address-space identifier current when they
    were filled (see {!Sb_isa.Cregs.asid}): lookups only hit entries of the
    current ASID, and the slot index mixes the ASID so two address spaces do
    not thrash one slot.  Callers that do not use ASIDs pass 0
    throughout. *)

type entry = {
  vpn : int;  (** va lsr 12 *)
  ppn : int;  (** pa lsr 12 *)
  ap : int;
  xn : bool;
  asid : int;
}

type t

val create : entries:int -> t
(** [entries] must be a power of two. *)

val entries : t -> int

val lookup : t -> vpn:int -> asid:int -> entry option
(** Does not update hit/miss statistics; use [probe] in engine paths. *)

val probe : t -> vpn:int -> asid:int -> entry option
(** Like [lookup] but counts a hit or a miss. *)

val insert : t -> entry -> unit

val invalidate_page : t -> vpn:int -> asid:int -> unit
(** ASID-qualified invalidate-by-VA (ARM's TLBIMVA): O(1).  Guests changing
    mappings shared across address spaces must use a full flush. *)

val flush : t -> unit

val hits : t -> int
val misses : t -> int
val flushes : t -> int
