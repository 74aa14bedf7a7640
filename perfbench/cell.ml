(* One benchmark cell: a suite benchmark or SPEC-analog workload on one
   engine and guest ISA, at the fixed iteration count of the pin file. *)

type target = Bench of Simbench.Bench.t | Workload of Sb_workloads.Workloads.t

type t = {
  id : string;  (** ["sba/dbt/Small Blocks"]: the pin-file key *)
  arch : Sb_isa.Arch_sig.arch_id;
  engine : string;  (** a {!Simbench.Engines.of_string} spelling *)
  target : target;
  iters : int;
}

let arch_name = Sb_serve.Protocol.arch_name

let target_name = function
  | Bench b -> b.Simbench.Bench.name
  | Workload w -> w.Sb_workloads.Workloads.name

let target_of_name name =
  match Simbench.Suite.find name with
  | Some b -> Bench b
  | None -> (
    match Sb_workloads.Workloads.find name with
    | Some w -> Workload w
    | None -> failwith ("unknown benchmark " ^ name))

let id_of ~arch ~engine target =
  String.concat "/" [ arch_name arch; engine; target_name target ]

let make ~arch ~engine ~iters target =
  { id = id_of ~arch ~engine target; arch; engine; target; iters }

(* guest_mips.<family>: [dbt@v2.1.0] counts as [dbt] *)
let family c =
  match String.index_opt c.engine '@' with
  | Some i -> String.sub c.engine 0 i
  | None -> c.engine

let engine c =
  match Simbench.Engines.of_string c.arch c.engine with
  | Ok e -> e
  | Error msg -> failwith msg

let spec c =
  {
    Sb_serve.Protocol.sp_bench = target_name c.target;
    sp_engine = Simbench.Engines.canonical_name c.engine;
    sp_arch = c.arch;
    sp_iters = Some c.iters;
    sp_repeats = 1;
  }

type measured = {
  insns : int;
  perf : (string * int) list;  (** kernel_perf, {!Sb_sim.Perf.to_string} names *)
  kernel_s : float;  (** the simulator's own wall-clock kernel time *)
  engine_s : float;  (** monotonic span of the timed [Engine.run] *)
  harness_s : float;  (** monotonic span of [Harness.run] *)
}

(* [Engine.run] wrapped in an ENGINE module of the same name, so the
   harness runs the very same engine while the benchmark times each run on
   the monotonic clock.  The last run is the timed kernel: a fast-forward
   under the same engine, if any, comes first. *)
let timed_engine ~cid (e : Sb_sim.Engine.t) last : Sb_sim.Engine.t =
  let module E = (val e) in
  (module struct
    let name = E.name
    let features = E.features

    let run ?max_insns m =
      let r, dt = Trace.timed ~cell:cid "engine.run" (fun () -> E.run ?max_insns m) in
      last := dt;
      r
  end)

let kernel_perf (o : Simbench.Harness.outcome) =
  match o.Simbench.Harness.result.Sb_sim.Run_result.kernel_perf with
  | None -> []
  | Some p ->
    List.map (fun (c, n) -> (Sb_sim.Perf.to_string c, n)) (Sb_sim.Perf.to_alist p)

let run ?switch_at ?checkpoints ~cid c =
  let last = ref nan in
  let engine = timed_engine ~cid (engine c) last in
  let support = Simbench.Engines.support c.arch in
  let o, harness_s =
    Trace.timed ~cell:cid "harness.run" (fun () ->
        match c.target with
        | Bench b ->
          Simbench.Harness.run ~iters:c.iters ?switch_at ?checkpoints ~support
            ~engine b
        | Workload w ->
          Sb_workloads.Workloads.run ~iters:c.iters ?switch_at ?checkpoints
            ~support ~engine w)
  in
  {
    insns = o.Simbench.Harness.kernel_insns;
    perf = kernel_perf o;
    kernel_s = o.Simbench.Harness.kernel_seconds;
    engine_s = !last;
    harness_s;
  }

(* Inverse of {!id_of}. *)
let of_id id ~iters =
  match String.split_on_char '/' id with
  | [ arch; engine; name ] ->
    let arch =
      match Sb_serve.Protocol.arch_of_name arch with
      | Ok a -> a
      | Error msg -> failwith msg
    in
    make ~arch ~engine ~iters (target_of_name name)
  | _ -> failwith ("bad cell id " ^ id)
