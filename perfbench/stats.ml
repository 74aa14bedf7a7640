let sorted xs = Array.of_list (List.sort compare xs)

let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

let p90 xs =
  let v = quantile xs 0.9 in
  let beyond = List.length (List.filter (fun x -> x > v) xs) in
  if beyond >= 10 then Ok v
  else
    Error
      (Printf.sprintf "p90 needs >= 10 samples beyond it, have %d of %d"
         beyond (List.length xs))

let geomean = function
  | [] -> nan
  | xs when List.exists (fun x -> not (x > 0.0)) xs -> nan
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
      /. float_of_int (List.length xs))

let mips ~insns ~seconds = float_of_int insns /. median seconds /. 1e6

let engine_mips cells =
  let engines =
    List.fold_left
      (fun acc (e, _, _) -> if List.mem e acc then acc else e :: acc)
      [] cells
    |> List.rev
  in
  List.map
    (fun e ->
      let ms =
        List.filter_map
          (fun (e', insns, seconds) ->
            if e' = e then Some (mips ~insns ~seconds) else None)
          cells
      in
      (e, geomean ms))
    engines

let failed_frac ~attempted ~failed =
  if attempted <= 0 then invalid_arg "Stats.failed_frac: nothing attempted";
  float_of_int failed /. float_of_int attempted

let clock_ok ~kernel_seconds ~span_seconds =
  Float.is_finite kernel_seconds
  && kernel_seconds >= 0.0
  && kernel_seconds <= span_seconds

let mix_mismatches ~sent ~seen =
  List.filter_map
    (fun (kind, n) ->
      let got = Option.value ~default:0 (List.assoc_opt kind seen) in
      if got = n then None
      else Some (Printf.sprintf "%s cells %d, daemon saw %d" kind n got))
    sent
