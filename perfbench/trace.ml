let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let started = now ()

type span = {
  id : int;
  name : string;
  parent : int;
  cell : int;
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let timed ?(cell = -1) name f =
  if not !enabled then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let t0 = now () in
    let finish () =
      let t1 = now () in
      stack := List.tl !stack;
      recorded := { id; name; parent; cell; t0; t1 } :: !recorded;
      t1 -. t0
    in
    match f () with
    | r -> (r, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let spans () = List.sort (fun a b -> compare (a.t0, a.id) (b.t0, b.id)) !recorded

let reset () =
  recorded := [];
  stack := []

let add ?(cell = -1) name ~t0 ~t1 children =
  if !enabled then begin
    let id = fresh_id () in
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    recorded := { id; name; parent; cell; t0; t1 } :: !recorded;
    let remap = Hashtbl.create 16 in
    List.iter (fun s -> Hashtbl.replace remap s.id (fresh_id ())) children;
    List.iter
      (fun s ->
        let parent =
          Option.value ~default:id (Hashtbl.find_opt remap s.parent)
        in
        recorded :=
          { s with id = Hashtbl.find remap s.id; parent } :: !recorded)
      children
  end

(* Partial application builds the parent -> children index once, so
   [List.map (self_time all) all] stays linear in the number of spans. *)
let self_time all =
  let kids = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.add kids c.parent c) all;
  fun s ->
    let covered, _ =
      Hashtbl.find_all kids s.id
      |> List.map (fun c -> (Float.max c.t0 s.t0, Float.min c.t1 s.t1))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
      |> List.fold_left
           (fun (acc, reach) (a, b) ->
             let a = Float.max a reach in
             if b > a then (acc +. (b -. a), b) else (acc, reach))
           (0.0, neg_infinity)
    in
    s.t1 -. s.t0 -. covered

let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%d\t%s\t%.9f\t%.9f\n" s.id s.parent s.cell
        s.name s.t0 s.t1)
    (spans ());
  close_out oc
