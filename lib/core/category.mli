(** The five benchmark categories of the SimBench suite (Figure 3). *)

type t =
  | Code_generation
  | Control_flow
  | Exception_handling
  | Io
  | Memory_system
  | Application
      (** not part of the suite's five categories: used by the SPEC-analog
          workloads, which share the benchmark runtime *)

(** The five SimBench categories (excludes [Application]). *)
val all : t list

val name : t -> string
