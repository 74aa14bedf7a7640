type phase = Setup | Kernel | Cleanup

type t = {
  now : unit -> float;
  mutable phase : phase;
  mutable kernel_start : float option;
  mutable kernel_end : float option;
  mutable iters : int;
  mutable args : int array;
  mutable ops : int;
  mutable exit_code : int option;
  mutable on_phase : phase -> unit;
  mutable stop_phase : phase option;
  mutable stop_pending : bool;
  mutable sync_pending : bool;
}

let create ~now () =
  {
    now;
    phase = Setup;
    kernel_start = None;
    kernel_end = None;
    iters = 0;
    args = [| 0; 0 |];
    ops = 0;
    exit_code = None;
    on_phase = ignore;
    stop_phase = None;
    stop_pending = false;
    sync_pending = false;
  }

let set_iters t n = t.iters <- n
let set_on_phase t f = t.on_phase <- f

let phase t = t.phase
let op_count t = t.ops
let exit_code t = t.exit_code
let exited t = t.exit_code <> None

let kernel_seconds t =
  match (t.kernel_start, t.kernel_end) with
  | Some a, Some b -> Some (b -. a)
  | _ -> None

let set_stop_phase t p =
  t.stop_phase <- p;
  t.stop_pending <- false

let stop_pending t = t.stop_pending
let sync_pending t = t.sync_pending
let clear_sync t = t.sync_pending <- false

let mark_kernel_start t =
  if t.kernel_start = None then t.kernel_start <- Some (t.now ())

let reset t =
  t.phase <- Setup;
  t.kernel_start <- None;
  t.kernel_end <- None;
  t.ops <- 0;
  t.exit_code <- None;
  t.stop_phase <- None;
  t.stop_pending <- false;
  t.sync_pending <- false

type state = {
  s_phase : phase;
  s_iters : int;
  s_args : int array;
  s_ops : int;
  s_exit_code : int option;
}

(* Host timestamps (kernel_start/kernel_end) are measurement artifacts of
   the run that produced the snapshot, not guest state; they are excluded
   so the restoring run times its own kernel phase. *)
let state t =
  {
    s_phase = t.phase;
    s_iters = t.iters;
    s_args = Array.copy t.args;
    s_ops = t.ops;
    s_exit_code = t.exit_code;
  }

let restore t s =
  t.phase <- s.s_phase;
  t.kernel_start <- None;
  t.kernel_end <- None;
  t.iters <- s.s_iters;
  t.args <- Array.copy s.s_args;
  t.ops <- s.s_ops;
  t.exit_code <- s.s_exit_code;
  t.stop_phase <- None;
  t.stop_pending <- false;
  t.sync_pending <- false

let phase_code = function Setup -> 0 | Kernel -> 1 | Cleanup -> 2

let device t =
  let read32 = function
    | 0x0 -> phase_code t.phase
    | 0xC -> t.iters
    | 0x10 -> t.args.(0)
    | 0x14 -> t.args.(1)
    | _ -> 0
  in
  let write32 offset v =
    match offset with
    | 0x0 ->
      (match v with
      | 1 ->
        t.phase <- Kernel;
        t.kernel_start <- Some (t.now ())
      | 2 ->
        t.phase <- Cleanup;
        t.kernel_end <- Some (t.now ())
      | _ -> t.phase <- Setup);
      t.on_phase t.phase;
      (* Every phase boundary asks the running engine to sync batched
         device time (timer tick backlog) at its next safe point, so
         phase-relative timer state is identical whether a run crossed
         the boundary itself or resumed from a snapshot taken there. *)
      t.sync_pending <- true;
      (match t.stop_phase with
      | Some p when p = t.phase -> t.stop_pending <- true
      | _ -> ())
    | 0x4 -> t.exit_code <- Some v
    | 0x8 -> t.ops <- t.ops + v
    | _ -> ()
  in
  { Device.name = "bench"; read32; write32 }
