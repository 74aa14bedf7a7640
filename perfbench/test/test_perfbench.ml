(* The benchmark's own statistics: order statistics with their sample
   guard, the per-engine geomean, failure share, span self time and the
   clock-integrity check. *)

open Perfbench

let close = Alcotest.float 1e-9

let p90_needs_ten_beyond () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  (match Stats.p90 (xs 50) with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "p90 of 50 samples accepted: %g" v);
  (* 1..91: p90 is 82, and only 83..91 lie beyond it *)
  (match Stats.p90 (xs 91) with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "p90 of 91 samples accepted: %g" v);
  match Stats.p90 (xs 101) with
  | Ok v -> Alcotest.check close "p90 of 1..101" 91.0 v
  | Error e -> Alcotest.fail e

let p90_ties_do_not_count () =
  (* 100 samples, 95 of them equal: nothing lies strictly beyond p90 *)
  let xs = List.init 95 (fun _ -> 1.0) @ [ 2.; 3.; 4.; 5.; 6. ] in
  match Stats.p90 xs with
  | Error _ -> ()
  | Ok v -> Alcotest.failf "tied p90 accepted: %g" v

let median_interpolates () =
  Alcotest.check close "odd" 2.0 (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.median []))

let engine_geomean () =
  let cells =
    [
      ("dbt", 2_000_000, [ 2.0; 1.0; 0.5 ]);  (* median 1 s: 2 MIPS *)
      ("interp", 1_000_000, [ 0.5 ]);  (* 2 MIPS *)
      ("dbt", 8_000_000, [ 1.0 ]);  (* 8 MIPS *)
    ]
  in
  match Stats.engine_mips cells with
  | [ ("dbt", d); ("interp", i) ] ->
    Alcotest.check close "dbt geomean of 2 and 8" 4.0 d;
    Alcotest.check close "interp" 2.0 i
  | l -> Alcotest.failf "unexpected engines: %d" (List.length l)

let geomean_rejects_non_positive () =
  Alcotest.check close "geomean" 3.0 (Stats.geomean [ 1.; 9. ]);
  Alcotest.(check bool) "zero" true (Float.is_nan (Stats.geomean [ 1.; 0. ]));
  Alcotest.(check bool) "empty" true (Float.is_nan (Stats.geomean []))

let failed_frac () =
  Alcotest.check close "3 of 200" 0.015 (Stats.failed_frac ~attempted:200 ~failed:3);
  Alcotest.check close "none" 0.0 (Stats.failed_frac ~attempted:5 ~failed:0);
  Alcotest.check_raises "nothing attempted"
    (Invalid_argument "Stats.failed_frac: nothing attempted") (fun () ->
      ignore (Stats.failed_frac ~attempted:0 ~failed:0))

let span id parent t0 t1 = { Trace.id; name = "s"; parent; cell = 0; t0; t1 }

let self_time_nested () =
  let root = span 0 (-1) 0.0 10.0 in
  let a = span 1 0 1.0 3.0 in
  let b = span 2 0 2.0 5.0 in  (* overlaps a: 1..5 is covered once *)
  let c = span 3 0 8.0 12.0 in  (* clipped to the parent's end *)
  let grandchild = span 4 1 1.5 2.5 in  (* inside a: not the root's child *)
  let all = [ root; a; b; c; grandchild ] in
  let self = Trace.self_time all in
  Alcotest.check close "root" 4.0 (self root);
  Alcotest.check close "a" 1.0 (self a);
  Alcotest.check close "leaf" 1.0 (self grandchild)

let timed_records_parents () =
  Trace.reset ();
  Trace.enabled := true;
  let (), _ =
    Trace.timed "outer" (fun () -> ignore (Trace.timed "inner" (fun () -> ())))
  in
  Trace.enabled := false;
  ignore (Trace.timed "untraced" (fun () -> ()));
  match Trace.spans () with
  | [ o; i ] ->
    Alcotest.(check string) "outer first" "outer" o.Trace.name;
    Alcotest.(check int) "inner's parent" o.Trace.id i.Trace.parent;
    Alcotest.(check int) "root" (-1) o.Trace.parent
  | l -> Alcotest.failf "%d spans recorded" (List.length l)

let clock_check () =
  let ok k s = Stats.clock_ok ~kernel_seconds:k ~span_seconds:s in
  Alcotest.(check bool) "inside" true (ok 0.5 1.0);
  Alcotest.(check bool) "equal" true (ok 1.0 1.0);
  Alcotest.(check bool) "zero" true (ok 0.0 1.0);
  Alcotest.(check bool) "negative" false (ok (-0.001) 1.0);
  Alcotest.(check bool) "longer than its span" false (ok 1.5 1.0);
  Alcotest.(check bool) "nan" false (ok nan 1.0);
  Alcotest.(check bool) "infinite" false (ok infinity infinity)

let mix_check () =
  let sent = [ ("fresh", 4); ("repeat", 14); ("preseeded", 2) ] in
  Alcotest.(check (list string)) "as sent" [] (Stats.mix_mismatches ~sent ~seen:sent);
  Alcotest.(check (list string))
    "store reads served from memory"
    [ "repeat cells 14, daemon saw 15"; "preseeded cells 2, daemon saw 1" ]
    (Stats.mix_mismatches ~sent
       ~seen:[ ("fresh", 4); ("repeat", 15); ("preseeded", 1) ]);
  Alcotest.(check (list string))
    "kind not seen" [ "fresh cells 4, daemon saw 0" ]
    (Stats.mix_mismatches ~sent ~seen:[ ("repeat", 14); ("preseeded", 2) ])

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "p90 needs ten samples beyond it" `Quick p90_needs_ten_beyond;
          Alcotest.test_case "p90 ties do not count as beyond" `Quick p90_ties_do_not_count;
          Alcotest.test_case "median" `Quick median_interpolates;
          Alcotest.test_case "per-engine geomean" `Quick engine_geomean;
          Alcotest.test_case "geomean domain" `Quick geomean_rejects_non_positive;
          Alcotest.test_case "failed_frac" `Quick failed_frac;
          Alcotest.test_case "clock integrity" `Quick clock_check;
          Alcotest.test_case "serve realised mix" `Quick mix_check;
        ] );
      ( "trace",
        [
          Alcotest.test_case "self time with nested children" `Quick self_time_nested;
          Alcotest.test_case "timed records parent links" `Quick timed_records_parents;
        ] );
    ]
