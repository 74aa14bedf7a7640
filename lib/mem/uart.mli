(** Serial port.  Register map (byte offsets):
    - [0x0] DATA: write transmits the low byte; read returns 0.
    - [0x4] STATUS: bit 0 = transmit ready (always set).
    - [0x8] TXCOUNT: total bytes transmitted (read-only). *)

type t

val create : unit -> t
val device : t -> Device.t

val contents : t -> string
(** Everything the guest has written so far. *)

val reset : t -> unit

type state = string
(** Serializable architectural state: the transmitted bytes. *)

val state : t -> state
val restore : t -> state -> unit
