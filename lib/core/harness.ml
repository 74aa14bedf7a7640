type outcome = {
  bench_name : string;
  engine_name : string;
  arch_name : string;
  iters : int;
  scale : int;
  result : Sb_sim.Run_result.t;
  kernel_seconds : float;
  kernel_insns : int;
  tested_ops : int;
}

exception Benchmark_failed of string

let default_scale = 20_000

let fail fmt = Printf.ksprintf (fun s -> raise (Benchmark_failed s)) fmt

(* One reusable machine per RAM size, handed out only to runs that are
   about to restore a checkpoint into it — restore overwrites all mutable
   machine state, so reuse is invisible except in the time not spent
   allocating and zeroing RAM.  Cold runs and fast-forward misses always
   build fresh machines. *)
let machine_pool : (int, Sb_sim.Machine.t) Hashtbl.t = Hashtbl.create 4

let pooled_machine (platform : Platform.t) =
  match Hashtbl.find_opt machine_pool platform.Platform.ram_size with
  | Some m -> m
  | None ->
    let m = Platform.machine platform () in
    Hashtbl.add machine_pool platform.Platform.ram_size m;
    m

let run ?(platform = Platform.sbp_ref) ?(scale = default_scale) ?iters
    ?switch_at ?setup_engine ?checkpoints ~support ~engine bench =
  let (module S : Support.SUPPORT) = support in
  let iters =
    match iters with
    | Some n -> max 1 n
    | None -> max 10 (bench.Bench.default_iters / scale)
  in
  let program = Rt.program ~support ~platform ~bench in
  let fresh_machine () =
    let machine = Platform.machine platform () in
    Sb_mem.Benchdev.set_iters machine.Sb_sim.Machine.benchdev iters;
    Sb_sim.Machine.load_program machine program;
    machine
  in
  (* Checkpointed fast-forward: bring a machine to the switch point — from
     the store when warm, by running the setup engine when cold — then
     hand it to the timed engine.  The snapshot records how far past
     kernel start the switch landed; that overshoot is credited back below
     so kernel_insns match a cold run exactly.

     Warm runs restore into a pooled machine instead of building a fresh
     one: [Snapshot.restore] rewrites every byte of mutable machine state
     (RAM, CPU, coprocessor, devices) and bumps the state generation so
     engine caches rebuild, which makes a reused machine
     indistinguishable from a fresh build — and skips zeroing tens of
     megabytes of RAM per grid cell. *)
  let machine, kernel_insns_carried =
    match switch_at with
    | None -> (fresh_machine (), 0)
    | Some point ->
      let setup_engine =
        match setup_engine with
        | Some e -> e
        | None -> (
          (* The default setup engine must share the timed engine's
             retirement granularity, or kernel accounting diverges: the
             per-insn engines copy perf exactly at the phase write, so
             they all share one interp-produced checkpoint; the DBT
             retires counters at block boundaries, so it fast-forwards
             under itself — the block-attribution fuzz at each phase edge
             then appears identically in cold and checkpointed runs and
             cancels out of kernel_insns. *)
          let (module E : Sb_sim.Engine.ENGINE) = engine in
          if String.length E.name >= 4 && String.sub E.name 0 4 = "dbt-" then
            engine
          else Engines.interp S.arch_id)
      in
      let key =
        let (module Setup : Sb_sim.Engine.ENGINE) = setup_engine in
        Checkpoint.key ~arch:S.name ~bench:bench.Bench.name ~iters
          ~ram_size:platform.Platform.ram_size ~setup_engine:Setup.name
          ~point program
      in
      let hit =
        Option.bind checkpoints (fun store -> Checkpoint.load store ~key)
      in
      let machine =
        match hit with
        | Some _ -> pooled_machine platform
        | None -> fresh_machine ()
      in
      let snap =
        match hit with
        | Some snap ->
          (* validated when it entered the store's memo *)
          Sb_sim.Snapshot.restore ~validated:true snap machine;
          snap
        | None -> (
          try
            let snap = Checkpoint.run_to_point ~setup_engine ~point machine in
            Option.iter
              (fun store -> Checkpoint.save store ~key snap)
              checkpoints;
            Sb_sim.Snapshot.restore ~validated:true snap machine;
            snap
          with
          | Checkpoint.Fast_forward_failed msg ->
            fail "%s on %s: %s" bench.Bench.name S.name msg
          | Sb_sim.Snapshot.Corrupt msg ->
            fail "%s on %s: corrupt checkpoint: %s" bench.Bench.name S.name msg)
      in
      (machine, Sb_sim.Snapshot.insns_into_kernel snap)
  in
  let result = Sb_sim.Engine.run engine machine in
  let engine_name = result.Sb_sim.Run_result.engine in
  (match result.Sb_sim.Run_result.stop with
  | Sb_sim.Run_result.Halted -> ()
  | stop ->
    fail "%s on %s stopped early (%s)" bench.Bench.name engine_name
      (Format.asprintf "%a" Sb_sim.Run_result.pp_stop stop));
  if result.Sb_sim.Run_result.exit_code <> 0 then
    fail "%s on %s: guest reported exit code 0x%x" bench.Bench.name engine_name
      result.Sb_sim.Run_result.exit_code;
  let kernel_seconds =
    match result.Sb_sim.Run_result.kernel_seconds with
    | Some s -> s
    | None -> fail "%s on %s: kernel phase never signalled" bench.Bench.name engine_name
  in
  let kernel_insns =
    match Sb_sim.Run_result.kernel_insns result with
    | Some n -> n + kernel_insns_carried
    | None -> fail "%s on %s: no kernel perf snapshot" bench.Bench.name engine_name
  in
  {
    bench_name = bench.Bench.name;
    engine_name;
    arch_name = S.name;
    iters;
    scale;
    result;
    kernel_seconds;
    kernel_insns;
    tested_ops = iters * bench.Bench.ops_per_iter;
  }

let density outcome =
  if outcome.kernel_insns = 0 then nan
  else float_of_int outcome.tested_ops /. float_of_int outcome.kernel_insns
