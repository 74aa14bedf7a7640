type t = {
  name : string;
  ram_size : int;
  code_base : int;
  stack_top : int;
  page_table_base : int;
  l2_table_base : int;
  scratch_base : int;
  scratch_pages : int;
  uart_base : int;
  intc_base : int;
  timer_base : int;
  devid_base : int;
  bench_base : int;
  device_section_va : int;
  fault_va : int;
  cold_region_va : int;
  cold_region_pages : int;
  user_page_va : int;
  softint_mask : int;
  heap_base : int;
  heap_pages : int;
}

let sbp_ref =
  {
    name = "sbp-ref";
    ram_size = 32 * 1024 * 1024;
    code_base = 0x0000_0000;
    stack_top = 0x0100_0000;
    page_table_base = 0x0110_0000;
    l2_table_base = 0x0111_0000;
    scratch_base = 0x0120_0000;
    scratch_pages = 64;
    uart_base = Sb_sim.Machine.Map.uart_base;
    intc_base = Sb_sim.Machine.Map.intc_base;
    timer_base = Sb_sim.Machine.Map.timer_base;
    devid_base = Sb_sim.Machine.Map.devid_base;
    bench_base = Sb_sim.Machine.Map.bench_base;
    device_section_va = 0xF000_0000;
    fault_va = 0x6000_0000;
    cold_region_va = 0x4000_0000;
    cold_region_pages = 2048;
    user_page_va = 0x5000_0000;
    softint_mask = 1 lsl Sb_mem.Intc.softint_line;
    heap_base = 0x0180_0000;
    heap_pages = 2048;
  }

let sbp_mini =
  {
    sbp_ref with
    name = "sbp-mini";
    ram_size = 8 * 1024 * 1024;
    stack_top = 0x0040_0000;
    page_table_base = 0x0041_0000;
    l2_table_base = 0x0042_0000;
    scratch_base = 0x0048_0000;
    scratch_pages = 16;
    cold_region_pages = 512;
    heap_base = 0x0050_0000;
    heap_pages = 512;
  }

let all = [ sbp_ref; sbp_mini ]

let machine t () = Sb_sim.Machine.create ~ram_size:t.ram_size ()
