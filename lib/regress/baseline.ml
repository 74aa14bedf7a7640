module Json = Sb_util.Json
module E = Sb_report.Experiments

(* schema tags: readers reject anything else with a clear message instead
   of mis-decoding old files.
   bench 3: cells gained "status" (failure-as-data); schema-2 files are
   still readable — the field defaults to "ok". *)
let bench_schema_compat = [ E.bench_schema; "simbench-bench-json-2" ]
let snapshot_schema = "simbench-baseline-1"

let ( let* ) = Result.bind

let error_in ~source msg = Error (Printf.sprintf "%s: %s" source msg)

let field ~source obj name decode =
  match Json.member name obj with
  | None -> error_in ~source (Printf.sprintf "missing field %S" name)
  | Some v -> (
    match decode v with
    | Some x -> Ok x
    | None -> error_in ~source (Printf.sprintf "field %S has the wrong shape" name))

(* ------------------------------------------------------------------ *)
(* Cells: the codec is Sb_report.Experiments'; a snapshot cell also     *)
(* names its experiment, a bench-file cell takes the file's.            *)
(* ------------------------------------------------------------------ *)

let of_cells ~source ~experiment cells =
  List.fold_left
    (fun acc j ->
      let* acc = acc in
      let experiment =
        Option.value ~default:experiment
          (Option.bind (Json.member "experiment" j) Json.string_opt)
      in
      match E.row_of_json ~default_status:"ok" j with
      | Ok row -> Ok ((experiment, row) :: acc)
      | Error msg -> error_in ~source msg)
    (Ok []) cells
  |> Result.map (fun cells -> { Regress.source; cells = List.rev cells })

let run_of_json ~source ~experiment j =
  let* cells = field ~source j "cells" Json.list_opt in
  of_cells ~source ~experiment cells

(* ------------------------------------------------------------------ *)
(* File formats                                                         *)
(* ------------------------------------------------------------------ *)

let read_file path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in_noerr ic;
    Ok s

(* the error for a file whose schema tag is none of the accepted ones *)
let schema_error ~source ~expected j =
  match Option.bind (Json.member "schema" j) Json.string_opt with
  | Some s ->
    error_in ~source
      (Printf.sprintf "schema %S is not the expected %S — re-create this file \
                       with the current tools"
         s expected)
  | None ->
    error_in ~source
      (Printf.sprintf
         "no \"schema\" field: this looks like a pre-%s file (older builds \
          did not record per-repeat samples) — re-run the benchmark with \
          --json to regenerate it"
         expected)

(* a single run file: a BENCH_<experiment>.json written by bench/main.exe
   --json (its experiment recorded once at top level), or a snapshot when
   [snapshots] is set (each cell names its own experiment) *)
let load_file ~snapshots path =
  let* s = read_file path in
  let* j =
    match Json.of_string s with
    | Ok j -> Ok j
    | Error msg -> error_in ~source:path msg
  in
  match Option.bind (Json.member "schema" j) Json.string_opt with
  | Some tag when snapshots && tag = snapshot_schema ->
    run_of_json ~source:path ~experiment:"?" j
  | Some tag when List.mem tag bench_schema_compat ->
    let* experiment = field ~source:path j "experiment" Json.string_opt in
    run_of_json ~source:path ~experiment j
  | _ ->
    schema_error ~source:path
      ~expected:(if snapshots then snapshot_schema else E.bench_schema)
      j

let load_bench_file path = load_file ~snapshots:false path

let is_bench_file name =
  String.length name > 6
  && String.sub name 0 6 = "BENCH_"
  && Filename.check_suffix name ".json"

let load_run_dir dir =
  match Sys.readdir dir with
  | exception Sys_error msg -> Error msg
  | entries ->
    let files = List.sort compare (List.filter is_bench_file (Array.to_list entries)) in
    if files = [] then
      error_in ~source:dir "no BENCH_*.json files (is this a --json output directory?)"
    else
      List.fold_left
        (fun acc name ->
          let* acc = acc in
          let* run = load_bench_file (Filename.concat dir name) in
          Ok (acc @ run.Regress.cells))
        (Ok []) files
      |> Result.map (fun cells -> { Regress.source = dir; cells })

let load path =
  if not (Sys.file_exists path) then
    error_in ~source:path "no such file or directory"
  else if Sys.is_directory path then load_run_dir path
  else load_file ~snapshots:true path

let filter_engine run engine =
  {
    run with
    Regress.cells =
      List.filter
        (fun (_, r) -> r.E.row_engine = engine)
        run.Regress.cells;
  }

(* ------------------------------------------------------------------ *)
(* Snapshots                                                            *)
(* ------------------------------------------------------------------ *)

let write_snapshot ~out (run : Regress.run) =
  Sb_jobs.Cache.mkdir_p (Filename.dirname out);
  let json =
    E.run_to_json ~schema:snapshot_schema
      [
        ("source", Json.String run.Regress.source);
        ( "host",
          Json.String
            (Printf.sprintf "OCaml %s (%s)" Sys.ocaml_version Sys.os_type) );
      ]
      (List.map
         (fun (experiment, row) -> E.row_to_json ~experiment row)
         run.Regress.cells)
  in
  let oc = open_out out in
  output_string oc (Json.to_string json);
  output_char oc '\n';
  close_out oc
