(** Serializable, seeded fault plans.

    A plan is pure data: everything {!Sb_fault.Fault} needs to reproduce a
    chaos run bit-identically — the program-generator chaos knobs, the
    bus-error ordinals, the RAM bit flips and the spurious interrupt
    lines.  Plans round-trip through JSON (schema
    ["simbench-fault-plan-1"]) so a diverging run can be attached to a bug
    report and replayed anywhere. *)

val schema : string

type t = {
  seed : int;  (** seeds both the guest program and this plan's draws *)
  mmio_chunks : int;
      (** device-window load/store chunks woven into the random program *)
  storm_chunks : int;  (** TLB-invalidation chunks woven in *)
  bus_errors : int list;
      (** 0-based device-access ordinals that raise a bus fault (see
          {!Sb_mem.Bus.set_fault_injector}) *)
  bit_flips : (int * int) list;
      (** [(offset, bit)] flips applied to the scratch window before the
          run; offsets are taken modulo {!flip_window_len} *)
  spurious_irqs : int list;
      (** interrupt lines raised at the controller before the run; never
          enabled by the guest, so pending-but-masked by construction *)
}

val flip_window_len : int
(** Size of the scratch arena bit flips land in (the window
    {!Sb_verify.Verify.run_outcome} digests). *)

val generate : seed:int -> t
(** Deterministically derive a plan from [seed]: 4–11 MMIO chunks, 0–3
    storm chunks, 1–3 bus-error ordinals within the MMIO traffic, 0–3 bit
    flips, 0–2 spurious interrupt lines. *)

val to_json : t -> Sb_util.Json.t
val to_string : t -> string
val of_string : string -> (t, string) result

val save : string -> t -> unit
(** Write the plan as one JSON line. Raises [Sys_error] on I/O failure. *)

val load : string -> (t, string) result
