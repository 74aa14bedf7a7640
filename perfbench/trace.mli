(** Spans recorded around calls into the simulator's public functions.

    A span is (name, start, end, parent, cell id), timed with bechamel's
    monotonic clock.  Recording happens only when {!enabled} is set (the
    traced run); {!timed} always measures, so the untraced run can still
    check each cell's wall-clock kernel time against its enclosing
    monotonic span.  Spans stay in memory until {!write}. *)

val now : unit -> float
(** Monotonic seconds (CLOCK_MONOTONIC via bechamel). *)

val started : float
(** {!now} when this module was initialised.  Linked ahead of the
    simulator's libraries, it marks the start of the program's own
    initialisation. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** [-1] for a root span *)
  cell : int;  (** the cell this span belongs to; [-1] for none *)
  t0 : float;
  t1 : float;
}

val enabled : bool ref

val timed : ?cell:int -> string -> (unit -> 'a) -> 'a * float
(** Run [f], returning its result and duration in seconds; when
    {!enabled}, also record it as a span whose parent is the innermost
    enclosing {!timed} call. *)

val spans : unit -> span list
(** Recorded spans, in start order. *)

val reset : unit -> unit

val add : ?cell:int -> string -> t0:float -> t1:float -> span list -> unit
(** When {!enabled}, record a span timed by the caller — a pool cell seen
    from the parent, submit to outcome — and adopt [children], spans
    recorded in another process (the worker): their ids are renumbered to
    stay unique and the batch's roots become children of the new span. *)

val self_time : span list -> span -> float
(** The span's duration minus the part of it covered by its direct
    children (overlapping children are counted once). *)

val write : string -> unit
(** Write every recorded span, one tab-separated line each:
    id, parent, cell, name, start, end. *)
