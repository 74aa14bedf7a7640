(* End-to-end and per-layer metrics of one run, as (name, unit, value). *)

let families = [ "dbt"; "interp"; "detailed"; "virt"; "native" ]

(* (family, insns, kernel-seconds samples) per cell (id and iteration
   count), simulated rows only *)
let cells (log : Run_log.t) =
  let by_cell = Hashtbl.create 64 in
  List.iter
    (fun (s : Run_log.sample) ->
      if s.simulated then
        let key = (s.cell.Cell.id, s.cell.Cell.iters) in
        match Hashtbl.find_opt by_cell key with
        | Some (f, n, ks) -> Hashtbl.replace by_cell key (f, n, s.kernel_s :: ks)
        | None ->
          Hashtbl.replace by_cell key (Cell.family s.cell, s.insns, [ s.kernel_s ]))
    log.samples;
  Hashtbl.fold (fun _ c acc -> c :: acc) by_cell [] |> List.sort compare

let engine_mips log = Stats.engine_mips (cells log)

(* VmHWM (peak resident set) of a live process, in KiB; 0 when unknown. *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%s/status" pid) with
  | exception Sys_error _ -> 0
  | ic ->
    let kb = ref 0 in
    (try
       while true do
         let l = input_line ic in
         if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
           kb := Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
       done
     with End_of_file -> close_in ic);
    !kb

(* The largest of the benchmark process and its pool workers (a forked
   worker's resident set already counts the pages it shares with this
   process), plus the serve daemon's. *)
let peak_rss_mb (log : Run_log.t) ~daemon_kb =
  float_of_int (max (vm_hwm_kb "self") log.worker_rss_kb + daemon_kb) /. 1024.0

let latencies (log : Run_log.t) =
  List.map (fun (s : Run_log.sample) -> s.latency) log.samples

(* The p90 per-cell latency, refused (and the run failed) when fewer than
   ten samples lie beyond it. *)
let cell_p90_s log =
  match Stats.p90 (latencies log) with
  | Ok v -> v
  | Error e ->
    Run_log.error log ("cell_p90_s refused: " ^ e);
    nan

let end_to_end (log : Run_log.t) ~setup ~wall ~daemon_kb =
  [
    ("setup_s", "s", Stats.median setup);
    ("cells_per_s", "cells/s", float_of_int (List.length log.samples) /. wall);
    ("cell_p50_s", "s", Stats.median (latencies log));
    ( "guest_mips",
      "Minsn/s",
      Stats.geomean
        (List.map (fun (_, insns, seconds) -> Stats.mips ~insns ~seconds) (cells log)) );
    ("peak_rss_mb", "MiB", peak_rss_mb log ~daemon_kb);
  ]

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [p90] is the untraced phase's [cell_p90_s]: the traced replay's
   latencies carry the probes beside each cell. *)
let per_layer (log : Run_log.t) ~overhead ~p90 =
  let spans = Trace.spans () in
  let named n = List.filter (fun (s : Trace.span) -> s.name = n) spans in
  let dur (s : Trace.span) = s.t1 -. s.t0 in
  let span_mean n scale = scale *. mean (List.map dur (named n)) in
  let family_of_cid cid =
    Option.map Cell.family (Hashtbl.find_opt log.cells cid)
  in
  let samples pred = List.filter pred log.samples in
  let fam f (s : Run_log.sample) = Cell.family s.cell = f in
  let all _ = true in
  let sum pred counter =
    List.fold_left
      (fun acc (s : Run_log.sample) ->
        acc
        +. float_of_int
             (Option.value ~default:0 (List.assoc_opt counter s.perf)))
      0.0 (samples pred)
  in
  let kinsn pred =
    List.fold_left
      (fun acc (s : Run_log.sample) -> acc +. (float_of_int s.insns /. 1000.0))
      0.0 (samples pred)
  in
  let per_kinsn pred counters =
    ratio (List.fold_left (fun acc c -> acc +. sum pred c) 0.0 counters) (kinsn pred)
  in
  let dbt = fam "dbt" in
  let engine_spans = named "engine.run" in
  let busy f =
    List.fold_left
      (fun acc (s : Trace.span) ->
        if family_of_cid s.cell = Some f then acc +. dur s else acc)
      0.0 engine_spans
  in
  let nonkernel =
    List.filter_map
      (fun (s : Trace.span) ->
        Option.map (fun k -> (dur s -. k) *. 1e3) (Hashtbl.find_opt log.kernels s.cell))
      engine_spans
  in
  let translate_us_per_block =
    let blocks_cell (s : Run_log.sample) =
      dbt s
      &&
      match s.cell.Cell.target with
      | Cell.Bench b ->
        b.Simbench.Bench.name = "Small Blocks" || b.Simbench.Bench.name = "Large Blocks"
      | Cell.Workload _ -> false
    in
    let cids = List.map (fun (s : Run_log.sample) -> s.cid) (samples blocks_cell) in
    let span_s =
      List.fold_left
        (fun acc (s : Trace.span) -> if List.mem s.cell cids then acc +. dur s else acc)
        0.0 engine_spans
    in
    ratio (span_s *. 1e6) (sum blocks_cell "Blocks_translated")
  in
  let obs n = mean (Option.value ~default:[] (Hashtbl.find_opt log.obs n)) in
  let count n = Option.value ~default:0.0 (List.assoc_opt n log.counts) in
  let mips = engine_mips log in
  [
    ( "harness.cell_setup_ms",
      "ms",
      1e3 *. mean (List.map (Trace.self_time spans) (named "harness.run")) );
  ]
  @ List.map (fun f -> ("engine.busy_s." ^ f, "s", busy f)) families
  @ [
      ("engine.nonkernel_ms", "ms", mean nonkernel);
      ("dbt.blocks_translated_per_kinsn", "1/kinsn", per_kinsn dbt [ "Blocks_translated" ]);
      ("dbt.decodes_per_kinsn", "1/kinsn", per_kinsn dbt [ "Decodes" ]);
      ("dbt.opt_passes_per_kinsn", "1/kinsn", per_kinsn dbt [ "Opt_passes_run" ]);
      ("dbt.smc_invalidations_per_kinsn", "1/kinsn", per_kinsn dbt [ "Smc_invalidations" ]);
      ("dbt.translate_us_per_block", "us", translate_us_per_block);
      ("dbt.front_cache_hit_ratio", "ratio", ratio (sum dbt "Front_cache_hits") (sum dbt "Block_lookups"));
      ( "dbt.trace_dispatch_ratio",
        "ratio",
        ratio (sum dbt "Trace_dispatches")
          (sum dbt "Trace_dispatches" +. sum dbt "Block_lookups" +. sum dbt "Chain_follows") );
      ("dbt.trace_side_exit_ratio", "ratio", ratio (sum dbt "Trace_side_exits") (sum dbt "Trace_dispatches"));
      ("dbt.spills_per_kinsn", "1/kinsn", per_kinsn dbt [ "Spills" ]);
      ( "dbt.opstream_bytes",
        "B",
        ratio (sum dbt "Opstream_bytes") (float_of_int (List.length (samples dbt))) );
      ("mmu.utlb_fast_hits_per_kinsn", "1/kinsn", per_kinsn all [ "Tlb_fast_hits" ]);
      ("mmu.tlb_hit_ratio", "ratio", ratio (sum all "Tlb_hit") (sum all "Tlb_hit" +. sum all "Tlb_miss"));
      ("mmu.walks_per_kinsn", "1/kinsn", per_kinsn all [ "Mmu_walks" ]);
      ("mmu.walk_levels_per_walk", "count", ratio (sum all "Walk_levels") (sum all "Mmu_walks"));
      ("mem.io_accesses_per_kinsn", "1/kinsn", per_kinsn all [ "Io_reads"; "Io_writes" ]);
      ("exn.taken_per_kinsn", "1/kinsn", per_kinsn all [ "Exceptions_total" ]);
      ("virt.vm_exits_per_kinsn", "1/kinsn", per_kinsn all [ "Vm_exits" ]);
      ( "interp.front_cache_hit_ratio",
        "ratio",
        ratio (sum (fam "interp") "Front_cache_hits") (sum (fam "interp") "Insns") );
      ("checkpoint.load_ms", "ms", span_mean "checkpoint.load" 1e3);
      ("checkpoint.bytes", "B", obs "checkpoint.bytes");
      ("snapshot.restore_ms", "ms", span_mean "snapshot.restore" 1e3);
      ("checkpoint.save_ms", "ms", span_mean "checkpoint.save" 1e3);
      ("pool.overhead_ms", "ms", obs "pool.overhead_ms");
      ("pool.forked", "count", count "pool.forked");
      ("pool.retried", "count", count "pool.retried");
      ("pool.failed", "count", count "pool.failed");
      ("cache.store_ms", "ms", span_mean "cache.store" 1e3);
      ("cache.load_ms", "ms", span_mean "cache.load" 1e3);
      ("cache.entry_bytes", "B", obs "cache.entry_bytes");
      ("serve.status_rtt_ms", "ms", span_mean "serve.status" 1e3);
      ("serve.dedup_ratio", "ratio", count "serve.dedup_ratio");
      ("serve.simulated", "count", count "serve.simulated");
      ("json.encode_us", "us", span_mean "json.encode" 1e6);
      ("json.decode_us", "us", span_mean "json.decode" 1e6);
      ("trace.overhead_frac", "ratio", overhead);
      ( "failed_frac",
        "ratio",
        if log.attempted = 0 then 0.0
        else Stats.failed_frac ~attempted:log.attempted ~failed:log.failed );
      ("cell_p90_s", "s", p90);
    ]
  @ List.map
      (fun f ->
        ("guest_mips." ^ f, "Minsn/s", Option.value ~default:0.0 (List.assoc_opt f mips)))
      families

(* Self time per span name: count, total and self seconds. *)
let self_times () =
  let spans = Trace.spans () in
  let self_time = Trace.self_time spans in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s : Trace.span) ->
      let n, tot, self =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        (n + 1, tot +. (s.t1 -. s.t0), self +. self_time s))
    spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [] |> List.sort compare
