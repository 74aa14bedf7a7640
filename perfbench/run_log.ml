(* What a timed pass produced: the verified cells, the failures, and the
   per-layer observations recorded beside them. *)

type sample = {
  cid : int;
  cell : Cell.t;
  insns : int;
  perf : (string * int) list;  (** kept in the traced run only *)
  kernel_s : float;
  latency : float;  (** the per-cell end-to-end latency, seconds *)
  simulated : bool;
      (** the row's timing comes from a simulation run in this pass (a
          serve cache hit or coalesced row carries an earlier timing) *)
}

type t = {
  workload : string;
  pins : Pins.t;
  mutable samples : sample list;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  mutable next_cid : int;
  cells : (int, Cell.t) Hashtbl.t;  (** every attempted cid *)
  kernels : (int, float) Hashtbl.t;
      (** kernel seconds of each [Engine.run] the benchmark timed itself *)
  obs : (string, float list) Hashtbl.t;  (** per-layer observations *)
  mutable counts : (string * float) list;  (** per-layer totals *)
  mutable notes : string list;  (** printed with the run's figures *)
  mutable worker_rss_kb : int;  (** the largest pool worker's VmHWM *)
}

let create ~workload ~pins =
  {
    workload;
    pins;
    samples = [];
    attempted = 0;
    failed = 0;
    errors = [];
    next_cid = 0;
    cells = Hashtbl.create 256;
    kernels = Hashtbl.create 256;
    obs = Hashtbl.create 16;
    counts = [];
    notes = [];
    worker_rss_kb = 0;
  }

let cid t cell =
  let c = t.next_cid in
  t.next_cid <- c + 1;
  Hashtbl.replace t.cells c cell;
  c

let observe t name v =
  Hashtbl.replace t.obs name
    (v :: Option.value ~default:[] (Hashtbl.find_opt t.obs name))

let error t msg = t.errors <- msg :: t.errors

let fail t msg =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  error t msg

(* A finished cell: its simulated statistics must match the pin and its
   wall-clock kernel time must fit inside the enclosing monotonic span
   ([span_s]); a cell failing either is not ok. *)
let record t ~cid ~cell ~insns ~perf ~kernel_s ~span_s ~latency ~simulated =
  match
    Pins.check t.pins ~workload:t.workload ~id:cell.Cell.id ~iters:cell.Cell.iters
      ~insns ~perf
  with
  | Error e -> fail t ("pin mismatch: " ^ e)
  | Ok () when not (Stats.clock_ok ~kernel_seconds:kernel_s ~span_seconds:span_s)
    ->
    fail t
      (Printf.sprintf "clock check: %s kernel_seconds %.6f, enclosing span %.6f"
         cell.Cell.id kernel_s span_s)
  | Ok () ->
    t.attempted <- t.attempted + 1;
    (* the counters feed only the per-layer metrics; kept in every sample
       of an untraced run they would grow the process measured by
       peak_rss_mb with the number of cells completed *)
    let perf = if !Trace.enabled then perf else [] in
    t.samples <-
      { cid; cell; insns; perf; kernel_s; latency; simulated } :: t.samples

(* A cell the benchmark ran through [Cell.run], in-process or in a pool
   worker. *)
let record_measured t ~cid ~cell ~latency (m : Cell.measured) =
  Hashtbl.replace t.kernels cid m.Cell.kernel_s;
  record t ~cid ~cell ~insns:m.Cell.insns ~perf:m.Cell.perf
    ~kernel_s:m.Cell.kernel_s ~span_s:m.Cell.engine_s ~latency ~simulated:true
