(* serve-mix: one [simbench serve -j 2 --cache DIR] daemon on a Unix
   socket, driven from this process by a closed loop of two client
   connections, each submitting jobs of short cells (kernels of at most
   about a millisecond) and sending its next job only when the previous
   one is done.  Per-cell cost here is fork, machine build, store fsync
   and framing rather than kernel time, so engine changes should show
   nothing and service-path changes show fully.

   Cells are drawn by the seed from the pinned spec set: a share fresh
   (simulated, then written to the store), a share repeating the client's
   earlier keys (memo hits, or coalesced while still in flight), and a
   share pre-seeded into the store during set-up by earlier daemons (read
   back from disk).  Fresh and pre-seeded specs are each drawn at most
   once per daemon, so every fresh cell is a simulation and every
   pre-seeded cell a store read; the daemon's status counters must
   confirm both after the run. *)

module P = Sb_serve.Protocol
module C = Sb_serve.Client
module J = Sb_util.Json

let workload = "serve-mix"
let clients = 2
let job_cells = 2

type kind = Fresh | Repeat | Preseeded

let kind_name = function Fresh -> "fresh" | Repeat -> "repeat" | Preseeded -> "preseeded"

(* The mix is synthetic: the repository records no daemon traffic beyond
   its soak scripts, whose clients all send one identical spec.  Each
   share is dealt exactly in every cycle of 20 cells (in a seeded order),
   so the mix does not drift with the seed.  Fresh cells are the slow
   mode of the latency distribution; at 4 in 20 the p50 falls inside the
   in-memory and store reads and the p90 in the middle of the
   simulations, away from the edge between the two modes.  Pre-seeded
   cells are 2 in 20: each is drawn once, and the 500 pre-seeded specs
   (like the 1024 fresh ones) last about 30 s of load on the 2-vCPU host
   the counts were chosen on, at about 3 s of set-up per pre-seeding
   daemon.  Repeats fill the rest. *)
let cycle = [ (Fresh, 4); (Repeat, 14); (Preseeded, 2) ]

(* Set-up pre-seeds the store in [setup_chunks] chunks of [preseed_chunk]
   specs, one earlier daemon each; set-up time is the median over the
   chunks. *)
let setup_chunks = 5
let preseed_chunk = 100

(* traced run: one in-process Harness.run / Cache probe per this many
   fresh rows *)
let probe_every = 4

type daemon = { pid : int; sock : string }

let live : int list ref = ref []

let spawn ~cli ~work ~name ~cache =
  let sock = Filename.concat work (name ^ ".sock") in
  let log =
    Unix.openfile
      (Filename.concat work (name ^ ".log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
      0o644
  in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; sock; "-j"; "2"; "--cache"; cache |]
      Unix.stdin log log
  in
  Unix.close log;
  live := pid :: !live;
  { pid; sock }

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  live := List.filter (( <> ) d.pid) !live

(* Anything still running when the benchmark exits (an error path). *)
let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Connect once the daemon has bound its socket; returns after its hello
   frame. *)
let connect d =
  let give_up = Trace.now () +. 30.0 in
  let rec go () =
    match C.connect ("unix:" ^ d.sock) with
    | Ok c -> c
    | Error e ->
      (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) d.pid) !live;
        failwith ("serve daemon exited: " ^ C.error_message e));
      if Trace.now () > give_up then failwith (C.error_message e);
      Unix.sleepf 0.002;
      go ()
  in
  go ()

type row = { cell : Cell.t; key : string; cached : bool; json : J.t; latency : float }

(* Submit one job; the row set must be complete and duplicate-free: the
   multiset of row keys equals the multiset of the submitted specs'
   keys. *)
let run_job conn ~id cells =
  let t0 = Trace.now () in
  let got = ref [] in
  let on_row ~key ~cached json =
    got := (key, cached, json, Trace.now () -. t0) :: !got
  in
  let specs = List.map Cell.spec cells in
  let keys = List.map P.spec_key specs in
  match C.submit conn ~id ~cells:specs ~on_row with
  | Error e -> Error (id ^ ": " ^ C.error_message e)
  | Ok (C.Completed { failed; _ }) when failed > 0 ->
    Error (Printf.sprintf "%s: %d failed rows" id failed)
  | Ok (C.Completed _) ->
    let have = List.sort compare (List.map (fun (k, _, _, _) -> k) !got) in
    if have <> List.sort compare keys then
      Error (Printf.sprintf "%s: row set differs from the submitted cells" id)
    else
      let by_key = List.combine keys cells in
      Ok
        (List.rev_map
           (fun (key, cached, json, latency) ->
             { cell = List.assoc key by_key; key; cached; json; latency })
           !got)
  | Ok (C.Was_cancelled _) -> Error (id ^ ": cancelled")
  | Ok (C.Server_bye r) -> Error (id ^ ": server shut down: " ^ r)

let record_row log r =
  let cid = Run_log.cid log r.cell in
  match P.row_of_json r.json with
  | Error e -> Run_log.fail log ("bad row: " ^ e)
  | Ok row when row.Sb_report.Experiments.row_status <> "ok" ->
    Run_log.fail log
      (Printf.sprintf "%s: row status %s %s" r.cell.Cell.id
         row.Sb_report.Experiments.row_status row.Sb_report.Experiments.row_note)
  | Ok row ->
    Run_log.record log ~cid ~cell:r.cell
      ~insns:row.Sb_report.Experiments.row_kernel_insns
      ~perf:row.Sb_report.Experiments.row_perf
      ~kernel_s:row.Sb_report.Experiments.row_seconds
      ~span_s:(if r.cached then infinity else r.latency)
      ~latency:r.latency ~simulated:(not r.cached)

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* The client's share of the fresh or pre-seeded specs is used up: it
   stops submitting, so a fast host ends the timed pass early rather than
   changing the mix. *)
exception Exhausted

(* The seeded cell stream of one client. *)
type gen = {
  rng : Random.State.t;
  fresh : Cell.t Queue.t;
  preseeded : Cell.t Queue.t;
  mutable history : Cell.t list;
  mutable drawn : int;
  mutable slots : kind list;
  submitted : int array;  (** cells sent, per kind *)
}

let kind_index = function Fresh -> 0 | Repeat -> 1 | Preseeded -> 2

let take q = match Queue.take_opt q with Some c -> c | None -> raise Exhausted

let rec draw g =
  match g.slots with
  | [] ->
    let a =
      Array.of_list
        (List.concat_map (fun (kind, n) -> List.init n (fun _ -> kind)) cycle)
    in
    shuffle g.rng a;
    g.slots <- Array.to_list a;
    draw g
  | slot :: rest ->
    g.slots <- rest;
    let kind, c =
      match slot with
      | Repeat when g.drawn > 0 ->
        (Repeat, List.nth g.history (Random.State.int g.rng g.drawn))
      | Fresh | Repeat -> (Fresh, take g.fresh)
      | Preseeded -> (Preseeded, take g.preseeded)
    in
    g.history <- c :: g.history;
    g.drawn <- g.drawn + 1;
    (kind, c)

(* The next job of a client, or [Exhausted]. *)
let next_job g =
  let drawn = List.init job_cells (fun _ -> draw g) in
  List.iter (fun (k, _) -> g.submitted.(kind_index k) <- g.submitted.(kind_index k) + 1) drawn;
  List.map snd drawn

(* The pre-seeded specs and one generator per client, all from the seed:
   each client takes every [clients]-th spec of the fresh and of the
   pre-seeded part, so no spec is fresh or pre-seeded twice. *)
let plan ~pins ~seed =
  let rng = Random.State.make [| seed; 0x5e5e |] in
  let pool =
    Array.of_list
      (List.map
         (fun (id, p) -> Cell.of_id id ~iters:p.Pins.iters)
         (Pins.entries pins ~workload))
  in
  shuffle rng pool;
  let n_pre = setup_chunks * preseed_chunk in
  let preseeded = Array.sub pool 0 n_pre in
  let deal c lo hi =
    let q = Queue.create () in
    for i = lo to hi - 1 do
      if i mod clients = c then Queue.add pool.(i) q
    done;
    q
  in
  let gens =
    List.init clients (fun c ->
        {
          rng = Random.State.make [| seed; c |];
          fresh = deal c n_pre (Array.length pool);
          preseeded = deal c 0 n_pre;
          history = [];
          drawn = 0;
          slots = [];
          submitted = Array.make 3 0;
        })
  in
  (preseeded, gens)

(* Set-up: [setup_chunks] earlier daemons in turn each start on the same
   store, answer their first hello and pre-seed one chunk of specs, then
   stop; each chunk's time is one set-up sample.  The timed daemon then
   starts on that store. *)
let setup ~cli ~work ~tag log preseeded =
  let cache = Filename.concat work (tag ^ "-cache") in
  let times =
    List.init setup_chunks (fun i ->
        let t0 = Trace.now () in
        let a = spawn ~cli ~work ~name:(Printf.sprintf "%s-seed%d" tag i) ~cache in
        let ca = connect a in
        let chunk = Array.sub preseeded (i * preseed_chunk) preseed_chunk in
        (match run_job ca ~id:(Printf.sprintf "%s-preseed%d" tag i) (Array.to_list chunk) with
        | Error e -> Run_log.error log ("pre-seed: " ^ e)
        | Ok _ -> ());
        C.close ca;
        stop a;
        Trace.now () -. t0)
  in
  let d = spawn ~cli ~work ~name:tag ~cache in
  C.close (connect d);
  (d, times)

(* The daemon's counters after the timed pass: the per-layer counts, and
   the check that the realised mix is the one submitted — every fresh
   cell simulated, every pre-seeded cell read from the store, every
   repeat answered from memory (memo hit or coalesced). *)
let status_counts conn ~submitted =
  match C.status conn with
  | Error e -> Error (C.error_message e)
  | Ok st ->
    let get path =
      List.fold_left (fun j k -> Option.bind j (J.member k)) (Some st) path
      |> Fun.flip Option.bind J.int_opt
      |> Option.value ~default:0
    in
    let simulated = get [ "counters"; "simulated" ]
    and disk = get [ "pool"; "cache_hits" ] in
    let memory = get [ "counters"; "cache_hits" ] - disk + get [ "counters"; "coalesced" ] in
    let realised =
      [ (kind_name Fresh, simulated); (kind_name Repeat, memory); (kind_name Preseeded, disk) ]
    in
    let sent =
      List.map (fun k -> (kind_name k, submitted.(kind_index k))) [ Fresh; Repeat; Preseeded ]
    in
    let f = float_of_int in
    let total = f (get [ "counters"; "cells_submitted" ]) in
    Ok
      ( [
          ("serve.simulated", f simulated);
          ( "serve.dedup_ratio",
            if total = 0.0 then 0.0 else f (get [ "counters"; "deduplicated" ]) /. total );
          ("pool.forked", f (get [ "pool"; "forked" ]));
          ("pool.retried", f (get [ "pool"; "retried" ]));
          ("pool.failed", f (get [ "pool"; "failed" ]));
        ],
        realised,
        Stats.mix_mismatches ~sent ~seen:realised )

(* In the traced run, after the timed replay, over its received rows: the
   row codec on every row, and on every [probe_every]-th simulated row the
   harness on the same spec and a store write and read of the same row. *)
let probe log ~probe_cache rows =
  let fresh_seen = ref 0 in
  List.iter
    (fun r ->
      let s, _ = Trace.timed "json.encode" (fun () -> J.to_string r.json) in
      ignore (Trace.timed "json.decode" (fun () -> J.of_string s));
      if not r.cached then begin
        incr fresh_seen;
        if !fresh_seen mod probe_every = 0 then begin
          let cid = Run_log.cid log r.cell in
          (match Cell.run ~cid r.cell with
          | m -> Hashtbl.replace log.Run_log.kernels cid m.Cell.kernel_s
          | exception e -> Run_log.error log ("probe: " ^ Printexc.to_string e));
          match P.row_of_json r.json with
          | Error _ -> ()
          | Ok row ->
            Run_log.observe log "cache.entry_bytes"
              (float_of_int (String.length (Marshal.to_string row [])));
            Trace.timed "cache.store" (fun () ->
                Sb_jobs.Cache.store probe_cache ~key:r.key row)
            |> ignore;
            Trace.timed "cache.load" (fun () ->
                (Sb_jobs.Cache.load probe_cache ~key:r.key
                  : Sb_report.Experiments.row option))
            |> ignore
        end
      end)
    rows

type phase = {
  setups : float list;
  wall : float;
  jobs : int list;  (** jobs completed per client *)
  daemon_rss_kb : int;
}

(* One measured phase.  [budget] is either seconds of closed-loop load or
   an exact job count per client (the traced replay of an untraced phase). *)
let phase ~cli ~work ~tag ~pins ~seed ~traced ~budget log =
  let preseeded, gens = plan ~pins ~seed in
  let d, setups = setup ~cli ~work ~tag log preseeded in
  let lock = Mutex.create () in
  let received = ref [] in
  let t0 = Trace.now () in
  let stop_at = t0 +. (match budget with `Seconds s -> s | `Jobs _ -> infinity) in
  let done_ = ref false in
  let client c gen =
    match connect d with
    | exception e ->
      Mutex.protect lock (fun () -> Run_log.error log (Printexc.to_string e));
      0
    | conn ->
    let jobs = ref 0 in
    let more () =
      match budget with
      | `Seconds _ -> Trace.now () < stop_at
      | `Jobs js -> !jobs < List.nth js c
    in
    (try
       while more () do
         let cells =
           try next_job gen
           with Exhausted ->
             Mutex.protect lock (fun () ->
                 log.Run_log.notes <-
                   Printf.sprintf "client %d ran out of specs after %.1f s" c
                     (Trace.now () -. t0)
                   :: log.Run_log.notes);
             raise Exit
         in
         let res = run_job conn ~id:(Printf.sprintf "c%d-j%d" c !jobs) cells in
         Mutex.protect lock (fun () ->
             match res with
             | Error e -> Run_log.fail log e
             | Ok rows ->
               List.iter (record_row log) rows;
               if traced then received := List.rev_append rows !received);
         (match res with Error _ -> raise Exit | Ok _ -> ());
         incr jobs
       done
     with
    | Exit -> ()
    | e -> Mutex.protect lock (fun () -> Run_log.error log (Printexc.to_string e)));
    C.close conn;
    !jobs
  in
  let results = Array.make clients 0 in
  let threads =
    List.mapi (fun c gen -> Thread.create (fun () -> results.(c) <- client c gen) ()) gens
  in
  (* traced run: Client.status round trips sampled while the load runs,
     one every 0.1 s *)
  let sampler =
    if not traced then None
    else
      Some
        (Thread.create
           (fun () ->
             let conn = connect d in
             while not !done_ do
               let s0 = Trace.now () in
               (match C.status conn with
               | Ok _ ->
                 let s1 = Trace.now () in
                 Mutex.protect lock (fun () -> Trace.add "serve.status" ~t0:s0 ~t1:s1 [])
               | Error _ -> ());
               Thread.delay 0.1
             done;
             C.close conn)
           ())
  in
  List.iter Thread.join threads;
  let wall = Trace.now () -. t0 in
  done_ := true;
  Option.iter Thread.join sampler;
  let submitted = Array.make 3 0 in
  List.iter (fun g -> Array.iteri (fun i n -> submitted.(i) <- submitted.(i) + n) g.submitted) gens;
  let conn = connect d in
  (match status_counts conn ~submitted with
  | Ok (counts, realised, mismatches) ->
    log.Run_log.counts <- counts;
    log.Run_log.notes <-
      Printf.sprintf "realised mix: %s of %d cells"
        (String.concat ", " (List.map (fun (k, n) -> Printf.sprintf "%s %d" k n) realised))
        (Array.fold_left ( + ) 0 submitted)
      :: log.Run_log.notes;
    List.iter (fun m -> Run_log.error log ("realised mix: " ^ m)) mismatches
  | Error e -> Run_log.error log ("status: " ^ e));
  C.close conn;
  let daemon_rss_kb = Metrics.vm_hwm_kb (string_of_int d.pid) in
  stop d;
  if traced then begin
    let probe_cache = Sb_jobs.Cache.create ~dir:(Filename.concat work "probe-cache") in
    probe log ~probe_cache (List.rev !received)
  end;
  { setups; wall; jobs = Array.to_list results; daemon_rss_kb }
