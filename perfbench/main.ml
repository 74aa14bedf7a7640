(* The repository benchmark: runs one workload through the simulator's
   public entry points, checks every cell against the pinned simulated
   statistics, and prints each metric by name and unit, then one JSON
   result line.  See README.md for the workloads, metrics and method. *)

module Pool = Sb_jobs.Pool

let workloads = [ "fig7-kernels"; "version-sweep"; "serve-mix"; "ckpt-restore" ]

(* ---- cell sets ---- *)

let paper_family = function
  | "QEMU-DBT" -> "dbt"
  | "SimIt-ARM" -> "interp"
  | "Gem5" -> "detailed"
  | "QEMU-KVM" -> "virt"
  | "Hardware" -> "native"
  | label -> failwith ("unknown paper column " ^ label)

let cells_of iters_of specs =
  List.map
    (fun (arch, engine, target) ->
      Cell.make ~arch ~engine ~iters:(iters_of (Cell.id_of ~arch ~engine target)) target)
    specs

(* fig7-kernels: Figure 7's grid — the 18 Figure-3 benchmarks on every
   paper column of both ISAs (5 engines on SBA, 3 on VLX), in-process and
   sequential on cold machines, with no pool and no result cache.  This is
   the paper's own measurement: the engine layers (dispatch, translation
   cache, micro-TLB, walker, bus, exceptions, vm exits) do nearly all the
   work. *)
let fig7_specs () =
  List.concat_map
    (fun arch ->
      List.concat_map
        (fun (label, _) ->
          List.map
            (fun b -> (arch, paper_family label, Cell.Bench b))
            Simbench.Suite.all)
        (Simbench.Engines.paper_set arch))
    Simbench.Engines.all_arches

(* version-sweep: the DBT under every Dbt.Version release on SBA, over the
   Code Generation and Control Flow benchmarks plus mcf and sjeng, sent
   through the fork pool, a worker per cell, with no result cache (one
   worker at a time: at -j 2 on a 2-CPU host the two workers' contention
   made p90 drift by a third between runs).  Each config
   translates cold, and the self-modifying benchmarks put decode, IR
   passes and emission in the blocking path; most releases run the
   closure backend, which fig7-kernels bypasses.  Per-cell fork and
   machine build are a large share of each cell. *)
let sweep_targets () =
  List.map
    (fun b -> Cell.Bench b)
    (Simbench.Suite.by_category Simbench.Category.Code_generation
    @ Simbench.Suite.by_category Simbench.Category.Control_flow)
  @ [ Cell.Workload Sb_workloads.Workloads.mcf; Cell.Workload Sb_workloads.Workloads.sjeng ]

let sweep_specs () =
  List.concat_map
    (fun v ->
      List.map (fun t -> (Sb_isa.Arch_sig.Sba, "dbt@" ^ v, t)) (sweep_targets ()))
    Sb_dbt.Version.names

(* ckpt-restore: the 12 SPEC-analog workloads on the detailed engine with
   the switch at kernel start, each cell in its own pool worker (one at a
   time, so cells do not contend) reading its snapshot from a store warmed
   during set-up.  The only path through
   Checkpoint.load / Snapshot.restore, and a Cache use unlike serve-mix's:
   reads of 20 KB - 8 MB snapshot entries instead of writes of ~1 KB rows. *)
let ckpt_specs () =
  List.map
    (fun w -> (Sb_isa.Arch_sig.Sba, "detailed", Cell.Workload w))
    Sb_workloads.Workloads.all

let cells ~pins workload =
  let specs =
    match workload with
    | "fig7-kernels" -> fig7_specs ()
    | "version-sweep" -> sweep_specs ()
    | "ckpt-restore" -> ckpt_specs ()
    | w -> invalid_arg w
  in
  cells_of (Pins.iters pins ~workload) specs

(* ---- timed passes ---- *)

type budget = Seconds of float | Passes of int

(* Whole passes only, so every cell runs equally often: a new pass starts
   while it would end at most half a pass (at the last pass's pace) past
   the budget — the run covers the whole number of passes nearest to it. *)
let run_passes budget pass =
  match budget with
  | Passes n ->
    for i = 0 to n - 1 do
      pass i
    done;
    n
  | Seconds s ->
    let t0 = Trace.now () in
    let rec go i last =
      if i > 0 && Trace.now () -. t0 +. (last /. 2.0) > s then i
      else begin
        let p0 = Trace.now () in
        pass i;
        go (i + 1) (Trace.now () -. p0)
      end
    in
    go 0 0.0

(* Each cold machine holds 32 MiB of guest RAM; collecting the previous
   cell's machine before the next one starts keeps that work out of the
   next kernel's timing (and the process at one machine's footprint). *)
let in_process_pass log cells =
  List.iter
    (fun cell ->
      Gc.full_major ();
      let cid = Run_log.cid log cell in
      match Cell.run ~cid cell with
      | m -> Run_log.record_measured log ~cid ~cell ~latency:m.Cell.harness_s m
      | exception e ->
        Run_log.fail log (cell.Cell.id ^ ": " ^ Printexc.to_string e))
    cells

(* Per-attempt budget of a pool cell; a deadline also makes the pool fork
   a worker per cell at -j 1. *)
let cell_deadline = 60.0

(* What a pool worker sends back: the measured cell, the spans it recorded,
   its own span, and its peak resident set in KiB. *)
type worker_result = Cell.measured * Trace.span list * float * int

let worker ~switch_at ~checkpoints ~cid cell : worker_result =
  Trace.reset ();
  let m, worker_s =
    Trace.timed ~cell:cid "worker" (fun () -> Cell.run ?switch_at ?checkpoints ~cid cell)
  in
  (m, Trace.spans (), worker_s, Metrics.vm_hwm_kb "self")

(* A closed loop over [jobs] forked workers: a cell is submitted only when
   a worker is free, so submit -> outcome latency holds no queueing. *)
let pool_pass log ~jobs ~stats ~thunk cells =
  let sched = Pool.Sched.create ~jobs ~deadline:cell_deadline ~stats () in
  let pending = Queue.of_seq (List.to_seq cells) in
  let inflight = ref 0 in
  let rec fill () =
    if !inflight < jobs && not (Queue.is_empty pending) then begin
      let cell = Queue.pop pending in
      let cid = Run_log.cid log cell in
      incr inflight;
      let t0 = Trace.now () in
      let k outcome =
        let t1 = Trace.now () in
        decr inflight;
        match outcome with
        | Pool.Done (m, spans, worker_s, rss_kb) | Pool.Retried ((m, spans, worker_s, rss_kb), _) ->
          Trace.add ~cell:cid "pool.cell" ~t0 ~t1 spans;
          log.Run_log.worker_rss_kb <- max log.Run_log.worker_rss_kb rss_kb;
          Run_log.observe log "pool.overhead_ms" ((t1 -. t0 -. worker_s) *. 1e3);
          Run_log.record_measured log ~cid ~cell ~latency:(t1 -. t0) m
        | Pool.Failed f -> Run_log.fail log (Pool.failure_message f)
      in
      Pool.Sched.submit sched (Pool.task ~label:cell.Cell.id (fun () -> thunk ~cid cell)) ~k;
      fill ()
    end
  in
  fill ();
  while !inflight > 0 do
    let timeout =
      let t = Pool.Sched.timeout sched in
      if t < 0.0 then 1.0 else t
    in
    let readable =
      match Unix.select (Pool.Sched.fds sched) [] [] timeout with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    Pool.Sched.pump sched ~readable;
    fill ()
  done

let shuffled ~seed ~pass cells =
  let a = Array.of_list cells in
  Serve_mix.shuffle (Random.State.make [| seed; pass; 0x5eed |]) a;
  Array.to_list a

let pool_counts log (stats : Pool.stats) =
  log.Run_log.counts <-
    [
      ("pool.forked", float_of_int stats.Pool.forked);
      ("pool.retried", float_of_int stats.Pool.retried);
      ("pool.failed", float_of_int stats.Pool.failed);
    ]

(* ---- checkpoint store ---- *)

let ckpt_point = Simbench.Checkpoint.Kernel_phase

(* Set-up of ckpt-restore: fast-forward every workload to kernel start
   under the default setup engine for detailed runs (the interpreter) and
   save the snapshots; running the interpreter as the timed engine reaches
   the same checkpoint key. *)
let warm_store ~dir cells =
  let store = Simbench.Checkpoint.open_store ~dir in
  List.iter
    (fun (c : Cell.t) ->
      match c.Cell.target with
      | Cell.Workload w ->
        ignore
          (Sb_workloads.Workloads.run ~iters:c.Cell.iters ~switch_at:ckpt_point
             ~checkpoints:store
             ~support:(Simbench.Engines.support c.Cell.arch)
             ~engine:(Simbench.Engines.interp c.Cell.arch) w)
      | Cell.Bench _ -> invalid_arg "warm_store")
    cells

(* In the traced run, for each ckpt-restore cell: the same public calls the
   harness makes inside Harness.run, on the same inputs. *)
let ckpt_probe ~store ~scratch ~cid (c : Cell.t) =
  let w = match c.Cell.target with Cell.Workload w -> w | Cell.Bench _ -> invalid_arg "ckpt_probe" in
  let support = Simbench.Engines.support c.Cell.arch in
  let (module S : Simbench.Support.SUPPORT) = support in
  let platform = Simbench.Platform.sbp_ref in
  let bench = w.Sb_workloads.Workloads.bench in
  let program = Simbench.Rt.program ~support ~platform ~bench in
  let key =
    Simbench.Checkpoint.key ~arch:S.name ~bench:bench.Simbench.Bench.name
      ~iters:c.Cell.iters ~ram_size:platform.Simbench.Platform.ram_size
      ~setup_engine:(Sb_sim.Engine.name (Simbench.Engines.interp c.Cell.arch))
      ~point:ckpt_point program
  in
  let cache = Simbench.Checkpoint.cache store in
  let fresh = Simbench.Checkpoint.of_cache cache in
  let snap, _ =
    Trace.timed ~cell:cid "checkpoint.load" (fun () ->
        Simbench.Checkpoint.load fresh ~key)
  in
  ignore
    (Trace.timed ~cell:cid "cache.load" (fun () ->
         (Sb_jobs.Cache.load cache ~key : Sb_sim.Snapshot.t option)));
  match snap with
  | None -> failwith (c.Cell.id ^ ": checkpoint missing from the warmed store")
  | Some snap ->
    let machine = Simbench.Platform.machine platform () in
    ignore
      (Trace.timed ~cell:cid "snapshot.restore" (fun () ->
           Sb_sim.Snapshot.restore ~validated:true snap machine));
    ignore
      (Trace.timed ~cell:cid "checkpoint.save" (fun () ->
           Simbench.Checkpoint.save scratch ~key snap));
    let bytes = float_of_int (String.length (Marshal.to_string snap [])) in
    [ ("checkpoint.bytes", bytes); ("cache.entry_bytes", bytes) ]

(* The probes run after the traced replay's timed passes, one pool worker
   per cell as in the timed pass, so that trace.overhead_frac holds span
   recording only. *)
let ckpt_probe_pass log ~store ~scratch cells =
  let probe (cid, cell) =
    Pool.task ~label:("probe " ^ cell.Cell.id) (fun () ->
        Trace.reset ();
        let obs = ckpt_probe ~store ~scratch ~cid cell in
        (Trace.spans (), obs))
  in
  let cells = List.map (fun c -> (Run_log.cid log c, c)) cells in
  List.iter2
    (fun (cid, (cell : Cell.t)) outcome ->
      match outcome with
      | Pool.Done (spans, obs) | Pool.Retried ((spans, obs), _) ->
        let t0 = List.fold_left (fun a (s : Trace.span) -> Float.min a s.t0) infinity spans
        and t1 = List.fold_left (fun a (s : Trace.span) -> Float.max a s.t1) neg_infinity spans in
        Trace.add ~cell:cid "probe" ~t0 ~t1 spans;
        List.iter (fun (n, v) -> Run_log.observe log n v) obs
      | Pool.Failed f -> Run_log.error log (cell.Cell.id ^ ": " ^ Pool.failure_message f))
    cells
    (Pool.run ~deadline:cell_deadline (List.map probe cells))

(* ---- set-up time ---- *)

(* fig7-kernels and version-sweep: process start to first cell.  This
   program is started in --setup-probe mode: it initialises the simulator's
   libraries, loads the pins, builds the cell plan and its engines, and
   reports the time since [Trace.started] (its first initialised module,
   linked ahead of the simulator's libraries) less the pin-file parse,
   which is the benchmark's own work.  The host's exec and dynamic-loading
   cost is left out as well: on a busy host it drifts by half between
   runs. *)
let probe_setup ~workload ~pins_path =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      [| Sys.executable_name; "--setup-probe"; workload; "--pins"; pins_path |]
  in
  let line = try input_line ic with End_of_file -> "" in
  match (Unix.close_process_in ic, Scanf.sscanf_opt line "ready %f" Fun.id) with
  | Unix.WEXITED 0, Some dt -> dt
  | _ -> failwith "setup probe failed"

(* set-up repetitions per run: set-up time is reported as their median
   (serve-mix sets up in Serve_mix.setup_chunks steps) *)
let setup_reps = function "ckpt-restore" -> 5 | _ -> 25

(* ---- running a workload ---- *)

type outcome = {
  log : Run_log.t;
  setups : float list;
  wall : float;
  daemon_rss_kb : int;  (** the serve daemon's VmHWM *)
  executed : [ `Passes of int | `Jobs of int list ];
}

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* One measured phase of [workload].  [replay] re-runs exactly the work of
   an earlier phase (the traced run replays the untraced one). *)
let run_phase ~workload ~pins ~pins_path ~cli ~work ~seed ~traced ~reps ~replay
    ~seconds =
  let log = Run_log.create ~workload ~pins in
  Trace.enabled := traced;
  match workload with
  | "serve-mix" ->
    let budget =
      match replay with Some (`Jobs js) -> `Jobs js | _ -> `Seconds seconds
    in
    let p =
      Serve_mix.phase ~cli ~work ~tag:(if traced then "t" else "u") ~pins ~seed
        ~traced ~budget log
    in
    {
      log;
      setups = p.Serve_mix.setups;
      wall = p.Serve_mix.wall;
      daemon_rss_kb = p.Serve_mix.daemon_rss_kb;
      executed = `Jobs p.Serve_mix.jobs;
    }
  | _ ->
    let budget =
      match replay with Some (`Passes n) -> Passes n | _ -> Seconds seconds
    in
    let cells = cells ~pins workload in
    let stats = Pool.stats () in
    let no_probes () = () in
    let setups, pass, after =
      match workload with
      | "fig7-kernels" ->
        ( List.init (if traced then 0 else reps) (fun _ -> probe_setup ~workload ~pins_path),
          (fun _ -> in_process_pass log cells),
          no_probes )
      | "version-sweep" ->
        ( List.init (if traced then 0 else reps) (fun _ -> probe_setup ~workload ~pins_path),
          (fun i ->
            pool_pass log ~jobs:1 ~stats
              ~thunk:(worker ~switch_at:None ~checkpoints:None)
              (shuffled ~seed ~pass:i cells)),
          no_probes )
      | "ckpt-restore" ->
        let setups = ref [] and dir = ref "" in
        for i = 1 to reps do
          dir := Filename.concat work (Printf.sprintf "ckpt%d" i);
          let t0 = Trace.now () in
          (* in a worker of its own, so the parent every cell is forked
             from never holds the warm-up's machines *)
          (match
             Pool.run ~deadline:cell_deadline
               [
                 Pool.task ~label:"warm" (fun () ->
                     warm_store ~dir:!dir cells;
                     Metrics.vm_hwm_kb "self");
               ]
           with
          | [ (Pool.Done rss_kb | Pool.Retried (rss_kb, _)) ] ->
            log.Run_log.worker_rss_kb <- max log.Run_log.worker_rss_kb rss_kb
          | _ -> failwith "ckpt-restore: warming the checkpoint store failed");
          setups := (Trace.now () -. t0) :: !setups
        done;
        let store = Simbench.Checkpoint.open_store ~dir:!dir in
        let scratch =
          Simbench.Checkpoint.open_store ~dir:(Filename.concat work "ckpt-scratch")
        in
        ( List.rev !setups,
          (fun _ ->
            pool_pass log ~jobs:1 ~stats
              ~thunk:(worker ~switch_at:(Some ckpt_point) ~checkpoints:(Some store))
              cells),
          fun () -> if traced then ckpt_probe_pass log ~store ~scratch cells )
      | w -> failwith ("unknown workload " ^ w)
    in
    let t0 = Trace.now () in
    let n = run_passes budget pass in
    let wall = Trace.now () -. t0 in
    after ();
    if workload <> "fig7-kernels" then pool_counts log stats;
    { log; setups; wall; daemon_rss_kb = 0; executed = `Passes n }

let print_metric (name, unit, v) = Printf.printf "%-36s %14.6g %s\n" name v unit

let json_line ~correct (log : Run_log.t) metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct log.attempted log.failed
    (String.concat ", "
       (List.map
          (fun (n, u, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          metrics))

let run ~workload ~seed ~seconds ~trace ~pins_path ~cli =
  (* a daemon that dies mid-write must surface as a client error *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let pins = Pins.load pins_path in
  let root = ".perfbench" in
  let work = Filename.concat root (Printf.sprintf "work-%d" (Unix.getpid ())) in
  Sb_jobs.Cache.mkdir_p work;
  at_exit (fun () ->
      Serve_mix.kill_all ();
      rm_rf work);
  Printf.printf "# host: nproc=%d ocaml=%s\n"
    (Domain.recommended_domain_count ()) Sys.ocaml_version;
  Printf.printf "# workload=%s seed=%d seconds=%g trace=%d\n%!" workload seed
    seconds (if trace then 1 else 0);
  let phase = run_phase ~workload ~pins ~pins_path ~cli ~work ~seed in
  let o, metrics =
    if not trace then begin
      let o = phase ~traced:false ~reps:(setup_reps workload) ~replay:None ~seconds in
      let m =
        Metrics.end_to_end o.log ~setup:o.setups ~wall:o.wall
          ~daemon_kb:o.daemon_rss_kb
      in
      (o, m)
    end
    else begin
      (* an untraced phase fixes the work; the traced phase replays it *)
      let a = phase ~traced:false ~reps:1 ~replay:None ~seconds in
      let p90 = Metrics.cell_p90_s a.log in
      Trace.reset ();
      let b = phase ~traced:true ~reps:1 ~replay:(Some a.executed) ~seconds in
      Trace.enabled := false;
      List.iter (Run_log.error b.log) a.log.errors;
      let overhead = (b.wall /. a.wall) -. 1.0 in
      Trace.write (Filename.concat root (Printf.sprintf "spans-%s-%d.tsv" workload seed));
      (b, Metrics.per_layer b.log ~overhead ~p90)
    end
  in
  let log = o.log in
  List.iter print_metric metrics;
  List.iter (fun n -> Printf.printf "  %s\n" n) (List.rev log.notes);
  if not trace then begin
    print_metric ("  cell_p90_s", "s", Metrics.cell_p90_s log);
    List.iter
      (fun (f, v) -> print_metric ("  guest_mips." ^ f, "Minsn/s", v))
      (Metrics.engine_mips log);
    Printf.printf "  samples=%d setups=%d wall=%.3fs\n" (List.length log.samples)
      (List.length o.setups) o.wall
  end
  else begin
    Printf.printf "# span self times: name count total_s self_s\n";
    List.iter
      (fun (name, (n, tot, self)) -> Printf.printf "#   %-20s %7d %10.4f %10.4f\n" name n tot self)
      (Metrics.self_times ())
  end;
  Printf.printf "  failed_frac=%g (%d of %d)\n"
    (if log.attempted = 0 then 0.0
     else Stats.failed_frac ~attempted:log.attempted ~failed:log.failed)
    log.failed log.attempted;
  let errors = List.rev log.errors in
  List.iteri (fun i e -> if i < 20 then Printf.printf "ERROR %s\n" e) errors;
  let correct = errors = [] && log.attempted > 0 in
  json_line ~correct log metrics;
  if not correct then exit 1

(* ---- pins ---- *)

let cold_runs ?switch_at ?checkpoints ~n c =
  List.init n (fun _ ->
      let m = Cell.run ?switch_at ?checkpoints ~cid:(-1) c in
      (m.Cell.insns, m.Cell.perf))

let kernel_s c = (Cell.run ~cid:(-1) c).Cell.kernel_s

(* Iterations for a kernel of about [target] seconds: two rounds of linear
   scaling from [probe] iterations. *)
let calibrate ~probe ~target (c : Cell.t) =
  let scale (c : Cell.t) =
    let k = kernel_s c in
    max 1 (min 1_000_000 (int_of_float (Float.round (float_of_int c.Cell.iters *. target /. k))))
  in
  let c1 = { c with Cell.iters = scale { c with Cell.iters = probe } } in
  scale c1

let write_pins path =
  let lines = ref [] in
  let emit workload (c : Cell.t) runs =
    lines := Pins.line ~workload ~id:c.Cell.id (Pins.of_runs ~iters:c.Cell.iters runs) :: !lines
  in
  let with_iters iters specs = cells_of (fun _ -> iters) specs in
  (* fig7-kernels: about 8 ms of kernel per cell *)
  List.iter
    (fun c ->
      let c = { c with Cell.iters = calibrate ~probe:20 ~target:0.008 c } in
      emit "fig7-kernels" c (cold_runs ~n:2 c);
      Printf.eprintf "pinned fig7-kernels %s iters=%d\n%!" c.Cell.id c.Cell.iters)
    (with_iters 20 (fig7_specs ()));
  (* version-sweep: one count per benchmark, about 4 ms on the baseline release *)
  let sweep_iters =
    List.map
      (fun t ->
        let c = Cell.make ~arch:Sb_isa.Arch_sig.Sba ~engine:("dbt@" ^ Sb_dbt.Version.baseline_name) ~iters:1 t in
        (Cell.target_name t, calibrate ~probe:10 ~target:0.004 c))
      (sweep_targets ())
  in
  List.iter
    (fun (arch, engine, t) ->
      let c = Cell.make ~arch ~engine ~iters:(List.assoc (Cell.target_name t) sweep_iters) t in
      emit "version-sweep" c (cold_runs ~n:2 c))
    (sweep_specs ());
  prerr_endline "pinned version-sweep";
  (* ckpt-restore: about 10 ms of detailed kernel; checkpointed runs must
     reproduce the cold pin *)
  let dir = Filename.concat ".perfbench" (Printf.sprintf "pin-%d" (Unix.getpid ())) in
  List.iter
    (fun c ->
      let c = { c with Cell.iters = calibrate ~probe:1 ~target:0.010 c } in
      warm_store ~dir [ c ];
      let ckpt =
        List.init 2 (fun _ ->
            let m =
              Cell.run ~switch_at:ckpt_point
                ~checkpoints:(Simbench.Checkpoint.open_store ~dir) ~cid:(-1) c
            in
            (m.Cell.insns, m.Cell.perf))
      in
      emit "ckpt-restore" c (cold_runs ~n:2 c @ ckpt))
    (with_iters 1 (ckpt_specs ()));
  rm_rf dir;
  prerr_endline "pinned ckpt-restore";
  (* serve-mix: kernels of about 0.2 ms, never above 1 ms; [variants]
     consecutive iteration counts per (benchmark, engine, ISA) give the
     distinct content-addressed specs the fresh share draws from *)
  let variants = 12 in
  List.iter
    (fun c ->
      let base = calibrate ~probe:10 ~target:0.0002 c in
      if kernel_s { c with Cell.iters = base + variants - 1 } <= 0.001 then
        for i = 0 to variants - 1 do
          let c = { c with Cell.iters = base + i } in
          emit "serve-mix" c (cold_runs ~n:2 c)
        done)
    (with_iters 10 (fig7_specs ()));
  prerr_endline "pinned serve-mix";
  let oc = open_out path in
  output_string oc (Pins.header ^ "\n");
  List.iter (fun l -> output_string oc (l ^ "\n")) (List.rev !lines);
  close_out oc

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let pins_path = ref "perfbench/pins.tsv" and cli = ref "" in
  let pin_out = ref "" and setup_probe = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--pins", Arg.Set_string pins_path, "FILE pin file");
      ("--cli", Arg.Set_string cli, "EXE simbench CLI (the serve daemon)");
      ("--pin", Arg.Set_string pin_out, "FILE re-derive iteration counts and pins");
      ("--setup-probe", Arg.Set_string setup_probe, "NAME (internal) set-up time probe");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 --cli EXE";
  if !pin_out <> "" then write_pins !pin_out
  else if !setup_probe <> "" then begin
    let pins, pins_s = Trace.timed "pins.load" (fun () -> Pins.load !pins_path) in
    let cs = cells ~pins !setup_probe in
    List.iter (fun c -> ignore (Cell.engine c)) cs;
    Printf.printf "ready %.9f\n" (Trace.now () -. Trace.started -. pins_s)
  end
  else if not (List.mem !workload workloads) then begin
    prerr_endline ("unknown workload " ^ !workload);
    exit 2
  end
  else
    run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
      ~pins_path:!pins_path ~cli:!cli
