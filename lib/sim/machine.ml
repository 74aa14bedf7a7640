module Map = struct
  let uart_base = 0xF000_0000
  let timer_base = 0xF001_0000
  let intc_base = 0xF002_0000
  let devid_base = 0xF003_0000
  let bench_base = 0xF004_0000
  let window_size = 0x1000
end

type t = {
  bus : Sb_mem.Bus.t;
  cpu : Cpu.t;
  uart : Sb_mem.Uart.t;
  intc : Sb_mem.Intc.t;
  timer : Sb_mem.Timer.t;
  devid : Sb_mem.Devid.t;
  benchdev : Sb_mem.Benchdev.t;
  ram_size : int;
  mutable state_gen : int;
}

let default_ram_size = 32 * 1024 * 1024

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let create ?(ram_size = default_ram_size) ?(now = now) () =
  let ram = Sb_mem.Phys_mem.create ~size:ram_size in
  let uart = Sb_mem.Uart.create () in
  let intc = Sb_mem.Intc.create () in
  let timer =
    Sb_mem.Timer.create ~on_fire:(fun () ->
        Sb_mem.Intc.raise_line intc Sb_mem.Intc.timer_line)
  in
  let devid = Sb_mem.Devid.create () in
  let benchdev = Sb_mem.Benchdev.create ~now () in
  let bus =
    Sb_mem.Bus.create ~ram
      [
        (Map.uart_base, Map.window_size, Sb_mem.Uart.device uart);
        (Map.timer_base, Map.window_size, Sb_mem.Timer.device timer);
        (Map.intc_base, Map.window_size, Sb_mem.Intc.device intc);
        (Map.devid_base, Map.window_size, Sb_mem.Devid.device devid);
        (Map.bench_base, Map.window_size, Sb_mem.Benchdev.device benchdev);
      ]
  in
  {
    bus;
    cpu = Cpu.create ();
    uart;
    intc;
    timer;
    devid;
    benchdev;
    ram_size;
    state_gen = 0;
  }

let touch t = t.state_gen <- t.state_gen + 1

let load_program t (program : Sb_asm.Program.t) =
  Sb_mem.Phys_mem.load (Sb_mem.Bus.ram t.bus) ~addr:program.base program.image;
  t.cpu.Cpu.pc <- program.entry;
  touch t

let reset t =
  Cpu.reset t.cpu;
  Sb_mem.Uart.reset t.uart;
  Sb_mem.Intc.reset t.intc;
  Sb_mem.Timer.reset t.timer;
  Sb_mem.Devid.reset t.devid;
  Sb_mem.Benchdev.reset t.benchdev;
  touch t

let irq_pending t = t.cpu.Cpu.irq_enabled && Sb_mem.Intc.asserted t.intc
