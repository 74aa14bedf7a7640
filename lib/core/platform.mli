(** Platform support package: the memory-map and address-space knowledge a
    SimBench port needs.  Porting to a new board means providing one of
    these records (the paper's "around 200 lines of C per platform"). *)

type t = {
  name : string;
  ram_size : int;
  code_base : int;       (** load address of the benchmark image *)
  stack_top : int;
  page_table_base : int; (** physical address of the L1 table *)
  l2_table_base : int;   (** physical arena for L2 tables *)
  scratch_base : int;    (** physical data area benchmarks may clobber *)
  scratch_pages : int;
  uart_base : int;
  intc_base : int;
  timer_base : int;
  devid_base : int;
  bench_base : int;
  device_section_va : int;  (** 4 MiB-aligned VA covering all device windows *)
  fault_va : int;           (** a VA guaranteed never mapped *)
  cold_region_va : int;     (** VA of the large page-mapped region *)
  cold_region_pages : int;
  user_page_va : int;       (** VA of the user-accessible page *)
  softint_mask : int;       (** INTC line mask used for software interrupts *)
  heap_base : int;          (** physical arena for application workloads *)
  heap_pages : int;
}

val sbp_ref : t
(** The default platform, matching {!Sb_sim.Machine.Map}. *)

val sbp_mini : t
(** A constrained board: 8 MiB of RAM, a quarter-size page-mapped region
    and a small scratch arena.  Exists to keep the suite honest about its
    platform parameterisation (examples/port_new_platform.ml builds a third
    one ad hoc). *)

val all : t list

val machine : t -> unit -> Sb_sim.Machine.t
(** Build a machine laid out for this platform. *)
