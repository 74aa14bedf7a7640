(* The pin file: for every cell the benchmark can run, the fixed iteration
   count and the simulated statistics a correct simulator reproduces
   exactly.  A header line names the kernel_perf counters in
   {!Sb_sim.Perf.all} order; then one tab-separated line per (workload,
   cell, iters):

     workload  cell-id  iters  kernel_insns  counters

   [counters] holds one value per header counter, comma-separated, with
   [?] for a counter that did not repeat across the pin runs (excluded
   from the check). *)

type pin = {
  iters : int;
  insns : int;
  counters : (string * int) list;  (** non-zero pinned counters *)
  unstable : string list;  (** counters excluded from the check *)
}

type t = (string * string, pin list) Hashtbl.t

let counter_names = List.map Sb_sim.Perf.to_string Sb_sim.Perf.all

let header = "#counters\t" ^ String.concat "," counter_names

let parse_counters field =
  let values = String.split_on_char ',' field in
  if List.length values <> List.length counter_names then
    failwith "pin counters do not match the counter header";
  List.fold_left2
    (fun (cs, us) name v ->
      if v = "?" then (cs, name :: us)
      else if v = "0" then (cs, us)
      else ((name, int_of_string v) :: cs, us))
    ([], []) counter_names values

let load path : t =
  let t = Hashtbl.create 1024 in
  let ic = open_in path in
  (try
     while true do
       match String.split_on_char '\t' (input_line ic) with
       | [ "#counters"; _ ] as l when String.concat "\t" l <> header ->
         failwith
           (path ^ ": the simulator's counter set changed; re-derive the pins")
       | [ w; id; iters; insns; counters ] when w.[0] <> '#' ->
         let counters, unstable = parse_counters counters in
         let pin =
           {
             iters = int_of_string iters;
             insns = int_of_string insns;
             counters = List.rev counters;
             unstable;
           }
         in
         let prev = Option.value ~default:[] (Hashtbl.find_opt t (w, id)) in
         Hashtbl.replace t (w, id) (prev @ [ pin ])
       | _ -> ()
     done
   with End_of_file -> close_in ic);
  t

let find t ~workload id =
  Option.value ~default:[] (Hashtbl.find_opt t (workload, id))

(* The pinned iteration count of a cell that runs at one fixed count. *)
let iters t ~workload id =
  match find t ~workload id with
  | p :: _ -> p.iters
  | [] -> failwith (Printf.sprintf "no pin for %s cell %s" workload id)

let check t ~workload ~id ~iters ~insns ~perf =
  match List.find_opt (fun p -> p.iters = iters) (find t ~workload id) with
  | None -> Error (Printf.sprintf "%s: no pin at iters=%d" id iters)
  | Some p when p.insns <> insns ->
    Error
      (Printf.sprintf "%s: kernel_insns %d, pinned %d" id insns p.insns)
  | Some p ->
    let bad =
      List.filter_map
        (fun name ->
          if List.mem name p.unstable then None
          else
            let want = Option.value ~default:0 (List.assoc_opt name p.counters) in
            let got = Option.value ~default:0 (List.assoc_opt name perf) in
            if want = got then None
            else Some (Printf.sprintf "%s %d (pinned %d)" name got want))
        counter_names
    in
    if bad = [] then Ok ()
    else Error (Printf.sprintf "%s: %s" id (String.concat ", " bad))

(* A pin from repeated runs of one cell: kernel_insns must agree across
   every run; counters that differ between runs are marked unstable. *)
let of_runs ~iters (runs : (int * (string * int) list) list) =
  match runs with
  | [] -> invalid_arg "Pins.of_runs"
  | (insns, _) :: _ ->
    if List.exists (fun (n, _) -> n <> insns) runs then
      failwith "kernel_insns differ between pin runs";
    let value perf name = Option.value ~default:0 (List.assoc_opt name perf) in
    let stable name =
      let v = value (snd (List.hd runs)) name in
      List.for_all (fun (_, perf) -> value perf name = v) runs
    in
    let first = snd (List.hd runs) in
    {
      iters;
      insns;
      counters =
        List.filter_map
          (fun name ->
            if stable name && value first name <> 0 then
              Some (name, value first name)
            else None)
          counter_names;
      unstable = List.filter (fun n -> not (stable n)) counter_names;
    }

let line ~workload ~id p =
  Printf.sprintf "%s\t%s\t%d\t%d\t%s" workload id p.iters p.insns
    (String.concat ","
       (List.map
          (fun name ->
            if List.mem name p.unstable then "?"
            else string_of_int (Option.value ~default:0 (List.assoc_opt name p.counters)))
          counter_names))

(* Every pinned (cell id, pin) of a workload, in a stable order. *)
let entries t ~workload =
  Hashtbl.fold
    (fun (w, id) pins acc ->
      if w = workload then List.map (fun p -> (id, p)) pins @ acc else acc)
    t []
  |> List.sort (fun (a, p) (b, q) -> compare (a, p.iters) (b, q.iters))
