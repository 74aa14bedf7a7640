module Json = Sb_util.Json
module Stats = Sb_util.Stats
module Tablefmt = Sb_util.Tablefmt
module E = Sb_report.Experiments

(* "retried n" cells carry real measurements — the flakiness was upstream
   of the numbers — so they compare like "ok"; terminal failures
   ("failed"/"timeout"/"quarantined") carry nan placeholders and must
   never reach the classifier *)
let ok_status s =
  s = "ok" || (String.length s >= 7 && String.sub s 0 7 = "retried")

type run = { source : string; cells : (string * E.row) list }

let default_threshold = 0.05

(* ------------------------------------------------------------------ *)
(* Classification                                                       *)
(* ------------------------------------------------------------------ *)

type verdict = Regressed | Improved | Unchanged

type note = Confirmed | Below_threshold | Within_noise

type comparison = {
  c_old : E.row;
  c_new : E.row;
  c_delta : float;
  c_ci_old : float * float;
  c_ci_new : float * float;
  c_verdict : verdict;
  c_note : note;
  c_insns_changed : bool;
}

let classify ~threshold ~old_cell ~new_cell =
  let delta =
    Stats.relative_change ~baseline:old_cell.E.row_seconds
      new_cell.E.row_seconds
  in
  let ci_old = Stats.ci95 old_cell.E.row_samples in
  let ci_new = Stats.ci95 new_cell.E.row_samples in
  let verdict, note =
    if Float.abs delta < threshold then (Unchanged, Below_threshold)
    else if Stats.intervals_overlap ci_old ci_new then (Unchanged, Within_noise)
    else if delta > 0. then (Regressed, Confirmed)
    else (Improved, Confirmed)
  in
  {
    c_old = old_cell;
    c_new = new_cell;
    c_delta = delta;
    c_ci_old = ci_old;
    c_ci_new = ci_new;
    c_verdict = verdict;
    c_note = note;
    c_insns_changed =
      old_cell.E.row_kernel_insns <> new_cell.E.row_kernel_insns;
  }

(* ------------------------------------------------------------------ *)
(* Pairing                                                              *)
(* ------------------------------------------------------------------ *)

type report = {
  r_threshold : float;
  r_old_source : string;
  r_new_source : string;
  r_engine_remap : (string * string) option;
  r_pairs : comparison list;
  r_only_old : E.row list;
  r_only_new : E.row list;
  r_mismatched : (E.row * E.row) list;
  r_skipped_status : (E.row * E.row) list;
  r_skipped_samples : (E.row * E.row) list;
}

(* cells are recorded per experiment but the sweep memoization means the
   same (engine, arch, cell) triple shows up with identical numbers in
   every experiment that shares it — keep the first occurrence *)
let pair_key ~with_engine (c : E.row) =
  ((if with_engine then c.row_engine else ""), c.row_arch, c.row_cell)

let dedup ~with_engine cells =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun c ->
      let k = pair_key ~with_engine c in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    cells

let engines_of cells =
  List.sort_uniq compare (List.map (fun c -> c.E.row_engine) cells)

let pair_runs ~with_engine old_cells new_cells =
  let key = pair_key ~with_engine in
  let old_cells = dedup ~with_engine old_cells in
  let new_cells = dedup ~with_engine new_cells in
  let new_tbl = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace new_tbl (key c) c) new_cells;
  let pairs, only_old =
    List.partition_map
      (fun o ->
        match Hashtbl.find_opt new_tbl (key o) with
        | Some n ->
          Hashtbl.remove new_tbl (key o);
          Either.Left (o, n)
        | None -> Either.Right o)
      old_cells
  in
  let only_new =
    List.filter (fun c -> Hashtbl.mem new_tbl (key c)) new_cells
  in
  (pairs, only_old, only_new)

let compare_runs ?(threshold = default_threshold) ?(ignore_engine = false)
    ~old_run ~new_run () =
  let old_rows = List.map snd old_run.cells in
  let new_rows = List.map snd new_run.cells in
  let pairs, only_old, only_new, remap =
    let strict = pair_runs ~with_engine:(not ignore_engine) old_rows new_rows in
    match strict with
    | [], _, _ when not ignore_engine -> (
      (* no key matched: if each side is a single (different) engine
         configuration, this is an engine-version diff — the paper's
         old-vs-new QEMU scenario — so pair by (arch, cell) and say so *)
      match (engines_of old_rows, engines_of new_rows) with
      | [ e_old ], [ e_new ] when e_old <> e_new ->
        let pairs, only_old, only_new =
          pair_runs ~with_engine:false old_rows new_rows
        in
        (pairs, only_old, only_new, Some (e_old, e_new))
      | _ ->
        let pairs, only_old, only_new = strict in
        (pairs, only_old, only_new, None)
      )
    | pairs, only_old, only_new -> (pairs, only_old, only_new, None)
  in
  (* failed/timeout/quarantined cells carry placeholder numbers, so route
     them out before the iteration-count check (a failed cell records
     iters = 0, which would otherwise mislabel the pair as mismatched) *)
  let skipped_status, rest =
    List.partition
      (fun (o, n) -> not (ok_status o.E.row_status && ok_status n.E.row_status))
      pairs
  in
  let rest, mismatched =
    List.partition (fun (o, n) -> o.E.row_iters = n.E.row_iters) rest
  in
  (* a 0- or 1-sample vector has no spread: ci95 degenerates to a point
     (or nan), and "significance" would be decided by raw threshold alone.
     Classify such pairs as skipped rather than pretending to a verdict. *)
  let enough c = List.length c.E.row_samples >= 2 in
  let comparable, skipped_samples =
    List.partition (fun (o, n) -> enough o && enough n) rest
  in
  let comparisons =
    List.map
      (fun (o, n) -> classify ~threshold ~old_cell:o ~new_cell:n)
      comparable
  in
  {
    r_threshold = threshold;
    r_old_source = old_run.source;
    r_new_source = new_run.source;
    r_engine_remap = remap;
    r_pairs = comparisons;
    r_only_old = only_old;
    r_only_new = only_new;
    r_mismatched = mismatched;
    r_skipped_status = skipped_status;
    r_skipped_samples = skipped_samples;
  }

let regressions report =
  List.filter (fun c -> c.c_verdict = Regressed) report.r_pairs

let exit_code ~strict report =
  if strict && regressions report <> [] then 1 else 0

(* ------------------------------------------------------------------ *)
(* Category attribution                                                 *)
(* ------------------------------------------------------------------ *)

let category_of_cell name =
  let of_bench (b : Simbench.Bench.t) =
    Simbench.Category.name b.Simbench.Bench.category
  in
  match Simbench.Suite.find name with
  | Some b -> of_bench b
  | None -> (
    match Simbench.Suite_ext.find name with
    | Some b -> of_bench b
    | None -> (
      match Sb_workloads.Workloads.find name with
      | Some w -> of_bench w.Sb_workloads.Workloads.bench
      | None -> "Other"))

(* the paper's reading of a category-level shift: which simulator
   mechanism moves that category *)
let mechanism_hint = function
  | "Code Generation" ->
    Some "translation / code-generation path (translation cache, IR passes)"
  | "Control Flow" ->
    Some "block dispatch and chaining (front caches, chain verification)"
  | "Exception Handling" -> Some "exception and interrupt delivery"
  | "I/O" -> Some "device emulation / memory-mapped I/O path"
  | "Memory System" -> Some "memory system (TLB/page cache, memory helpers)"
  | "Application" -> Some "whole-workload behaviour (SPEC-analog level)"
  | _ -> None

type category_summary = {
  cat_name : string;
  cat_cells : int;
  cat_regressed : int;
  cat_improved : int;
  cat_geomean_ratio : float;
}

let attribution report =
  let tbl : (string, comparison list ref) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun c ->
      let cat = category_of_cell c.c_old.E.row_cell in
      match Hashtbl.find_opt tbl cat with
      | Some l -> l := c :: !l
      | None ->
        Hashtbl.add tbl cat (ref [ c ]);
        order := cat :: !order)
    report.r_pairs;
  List.rev_map
    (fun cat ->
      let cs = !(Hashtbl.find tbl cat) in
      let count v = List.length (List.filter (fun c -> c.c_verdict = v) cs) in
      {
        cat_name = cat;
        cat_cells = List.length cs;
        cat_regressed = count Regressed;
        cat_improved = count Improved;
        cat_geomean_ratio =
          Stats.geomean
            (List.map
               (fun c -> c.c_new.E.row_seconds /. c.c_old.E.row_seconds)
               cs);
      })
    !order

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let pct f = Printf.sprintf "%+.1f%%" (f *. 100.)

let verdict_name = function
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Unchanged -> "unchanged"

let note_name = function
  | Confirmed -> "confirmed"
  | Below_threshold -> "below threshold"
  | Within_noise -> "within noise"

let verdict_cell c =
  match c.c_verdict with
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Unchanged -> (
    match c.c_note with
    | Within_noise -> "unchanged (noise)"
    | _ -> "unchanged")

let cell_row c =
  [
    c.c_old.E.row_cell;
    c.c_old.E.row_arch;
    (match c.c_old.E.row_engine = c.c_new.E.row_engine with
    | true -> c.c_old.E.row_engine
    | false -> c.c_old.E.row_engine ^ " -> " ^ c.c_new.E.row_engine);
    Printf.sprintf "%.4f" c.c_old.E.row_seconds;
    Printf.sprintf "%.4f" c.c_new.E.row_seconds;
    pct c.c_delta;
    verdict_cell c ^ (if c.c_insns_changed then " !insns" else "");
  ]

let cells_header = [ "Cell"; "Arch"; "Engine"; "Old s"; "New s"; "Delta"; "Verdict" ]

let category_summary_line s =
  if s.cat_regressed > 0 then
    Printf.sprintf "%s regressed %s (%d/%d cells)%s" s.cat_name
      (pct (s.cat_geomean_ratio -. 1.))
      s.cat_regressed s.cat_cells
      (match mechanism_hint s.cat_name with
      | Some m -> " — consistent with a change in the " ^ m
      | None -> "")
  else if s.cat_improved > 0 then
    Printf.sprintf "%s improved %s (%d/%d cells)" s.cat_name
      (pct (s.cat_geomean_ratio -. 1.))
      s.cat_improved s.cat_cells
  else Printf.sprintf "%s unchanged" s.cat_name

let render ?(all_cells = false) report =
  let buf = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "Comparing OLD=%s vs NEW=%s: %d paired cells, threshold +/-%.1f%%\n"
    report.r_old_source report.r_new_source
    (List.length report.r_pairs)
    (report.r_threshold *. 100.);
  (match report.r_engine_remap with
  | Some (e_old, e_new) ->
    out "(engine-version diff: every cell compared across %s -> %s)\n" e_old
      e_new
  | None -> ());
  out "\n";
  let changed =
    List.filter (fun c -> c.c_verdict <> Unchanged) report.r_pairs
  in
  let shown = if all_cells then report.r_pairs else changed in
  let shown =
    (* regressions first, then by magnitude *)
    List.stable_sort
      (fun a b ->
        match (a.c_verdict, b.c_verdict) with
        | Regressed, Regressed -> compare b.c_delta a.c_delta
        | Regressed, _ -> -1
        | _, Regressed -> 1
        | _ -> compare (Float.abs b.c_delta) (Float.abs a.c_delta))
      shown
  in
  if shown = [] then out "No cells to show: every paired cell is unchanged.\n"
  else begin
    Buffer.add_string buf
      (Tablefmt.render ~header:cells_header (List.map cell_row shown));
    if (not all_cells) && List.length report.r_pairs > List.length shown then
      out "(%d unchanged cells not shown)\n"
        (List.length report.r_pairs - List.length shown)
  end;
  out "\nCategory attribution:\n";
  List.iter (fun s -> out "  %s\n" (category_summary_line s)) (attribution report);
  if report.r_skipped_status <> [] then begin
    out "\nSkipped cells (failure status, not compared):\n";
    List.iter
      (fun (o, n) ->
        out "  %s/%s/%s: old %s, new %s\n" o.E.row_cell o.E.row_arch
          o.E.row_engine o.E.row_status n.E.row_status)
      report.r_skipped_status
  end;
  let n v = List.length (List.filter (fun c -> c.c_verdict = v) report.r_pairs) in
  out "\nSummary: %d regressed, %d improved, %d unchanged" (n Regressed)
    (n Improved) (n Unchanged);
  if report.r_only_old <> [] then
    out "; %d cells only in OLD" (List.length report.r_only_old);
  if report.r_only_new <> [] then
    out "; %d cells only in NEW" (List.length report.r_only_new);
  if report.r_mismatched <> [] then
    out "; %d pairs skipped (iteration counts differ)"
      (List.length report.r_mismatched);
  if report.r_skipped_status <> [] then
    out "; %d pairs skipped (failed/timeout cells)"
      (List.length report.r_skipped_status);
  if report.r_skipped_samples <> [] then
    out "; %d pairs skipped (insufficient samples)"
      (List.length report.r_skipped_samples);
  out "\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

let json_of_comparison c =
  let interval (lo, hi) = Json.List [ Json.Float lo; Json.Float hi ] in
  Json.Obj
    [
      ("cell", Json.String c.c_old.E.row_cell);
      ("arch", Json.String c.c_old.E.row_arch);
      ("old_engine", Json.String c.c_old.E.row_engine);
      ("new_engine", Json.String c.c_new.E.row_engine);
      ("old_seconds", Json.Float c.c_old.E.row_seconds);
      ("new_seconds", Json.Float c.c_new.E.row_seconds);
      ("delta", Json.Float c.c_delta);
      ("ci_old", interval c.c_ci_old);
      ("ci_new", interval c.c_ci_new);
      ("verdict", Json.String (verdict_name c.c_verdict));
      ("note", Json.String (note_name c.c_note));
      ("insns_changed", Json.Bool c.c_insns_changed);
      ("category", Json.String (category_of_cell c.c_old.E.row_cell));
    ]

let to_json report =
  let n v = List.length (List.filter (fun c -> c.c_verdict = v) report.r_pairs) in
  Json.Obj
    [
      ("schema", Json.String "simbench-compare-1");
      ("old", Json.String report.r_old_source);
      ("new", Json.String report.r_new_source);
      ("threshold", Json.Float report.r_threshold);
      ( "engine_remap",
        match report.r_engine_remap with
        | Some (a, b) -> Json.List [ Json.String a; Json.String b ]
        | None -> Json.Null );
      ("regressed", Json.Int (n Regressed));
      ("improved", Json.Int (n Improved));
      ("unchanged", Json.Int (n Unchanged));
      ("only_old", Json.Int (List.length report.r_only_old));
      ("only_new", Json.Int (List.length report.r_only_new));
      ("skipped_status", Json.Int (List.length report.r_skipped_status));
      ("skipped_samples", Json.Int (List.length report.r_skipped_samples));
      ( "skipped",
        Json.List
          (List.map
             (fun (o, n) ->
               Json.Obj
                 [
                   ("cell", Json.String o.E.row_cell);
                   ("arch", Json.String o.E.row_arch);
                   ("engine", Json.String o.E.row_engine);
                   ("old_status", Json.String o.E.row_status);
                   ("new_status", Json.String n.E.row_status);
                 ])
             report.r_skipped_status) );
      ( "categories",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("category", Json.String s.cat_name);
                   ("cells", Json.Int s.cat_cells);
                   ("regressed", Json.Int s.cat_regressed);
                   ("improved", Json.Int s.cat_improved);
                   ("geomean_ratio", Json.Float s.cat_geomean_ratio);
                 ])
             (attribution report)) );
      ("cells", Json.List (List.map json_of_comparison report.r_pairs));
    ]
