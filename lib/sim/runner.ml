let default_max_insns = 2_000_000_000

(* Process-wide instruction-budget watchdog: engines resolve their
   [?max_insns] default through this, so the harness can bound every cell
   of a run without threading an argument through each figure driver.
   Forked pool workers inherit the parent's setting. *)
let insn_budget = ref default_max_insns

let set_insn_budget n =
  if n <= 0 then invalid_arg "Runner.set_insn_budget: budget must be positive";
  insn_budget := n

let wrap ~name ~machine ~perf ~execute =
  let kernel_start = ref None in
  let kernel_perf = ref None in
  let benchdev = machine.Machine.benchdev in
  (* A run resumed from a snapshot taken mid-kernel starts with the phase
     already Kernel and no timestamp: open the kernel window at run start so
     both the perf diff and kernel_seconds cover exactly this run's share. *)
  if Sb_mem.Benchdev.phase benchdev = Sb_mem.Benchdev.Kernel then begin
    kernel_start := Some (Perf.copy perf);
    Sb_mem.Benchdev.mark_kernel_start benchdev
  end;
  Sb_mem.Benchdev.set_on_phase benchdev (fun phase ->
      match phase with
      | Sb_mem.Benchdev.Kernel -> kernel_start := Some (Perf.copy perf)
      | Sb_mem.Benchdev.Cleanup -> (
        match !kernel_start with
        | Some before -> kernel_perf := Some (Perf.diff ~after:perf ~before)
        | None -> ())
      | Sb_mem.Benchdev.Setup -> ());
  let t0 = Machine.now () in
  let stop = execute () in
  let wall_seconds = Machine.now () -. t0 in
  Sb_mem.Benchdev.set_on_phase benchdev ignore;
  let insns_into_kernel =
    if Sb_mem.Benchdev.phase benchdev = Sb_mem.Benchdev.Kernel then
      Option.map
        (fun before -> Perf.get perf Perf.Insns - Perf.get before Perf.Insns)
        !kernel_start
    else None
  in
  {
    Run_result.engine = name;
    stop;
    wall_seconds;
    kernel_seconds = Sb_mem.Benchdev.kernel_seconds benchdev;
    (* engines keep (and reset) their live counter array across runs on
       the same machine, so the result gets its own copy — results held
       across runs must not see later runs' counts *)
    perf = Perf.copy perf;
    kernel_perf = !kernel_perf;
    exit_code =
      (match Sb_mem.Benchdev.exit_code benchdev with
      | Some code -> code
      | None -> 0);
    uart_output = Sb_mem.Uart.contents machine.Machine.uart;
    tested_ops = Sb_mem.Benchdev.op_count benchdev;
    insns_into_kernel;
  }

let wait_for_interrupt machine ~perf =
  Perf.incr perf Perf.Wfi_waits;
  let intc = machine.Machine.intc in
  let timer = machine.Machine.timer in
  let budget = ref 10_000_000 in
  let rec loop () =
    if Sb_mem.Intc.pending intc land Sb_mem.Intc.enabled intc <> 0 then `Wake
    else if !budget <= 0 then `Deadlock
    else begin
      Sb_mem.Timer.advance timer 1024;
      budget := !budget - 1024;
      loop ()
    end
  in
  loop ()
