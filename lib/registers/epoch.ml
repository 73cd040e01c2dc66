type t = { s : int; a : int list }

let capacity ~k = (k * k) + 1

let genesis ~k = { s = 1; a = List.init k (fun i -> i + 2) }

let is_wellformed ~k e =
  let cap = capacity ~k in
  let in_range x = x >= 1 && x <= cap in
  in_range e.s
  && List.length e.a = k
  && List.for_all in_range e.a
  && List.sort_uniq Int.compare e.a = e.a

let rec ints_equal a b =
  a == b
  ||
  match (a, b) with
  | x :: a, y :: b -> Int.equal x y && ints_equal a b
  | [], [] -> true
  | _ :: _, [] | [], _ :: _ -> false

let equal e1 e2 = e1 == e2 || (e1.s = e2.s && ints_equal e1.a e2.a)

let compare_structural e1 e2 =
  match Int.compare e1.s e2.s with
  | 0 -> List.compare Int.compare e1.a e2.a
  | c -> c

let rec mem x = function [] -> false | y :: set -> Int.equal x y || mem x set

let gt ei ej = mem ej.s ei.a && not (mem ei.s ej.a)

let ge ei ej = equal ei ej || gt ei ej

(* Scans in place over [items] through the projection [epoch], a
   top-level function at the hot call site, so a scan allocates nothing. *)
let rec dominates epoch items e j =
  j >= Array.length items
  || (ge e (epoch items.(j)) && dominates epoch items e (j + 1))

let rec first_max epoch items i =
  if i >= Array.length items then None
  else
    let e = epoch items.(i) in
    if dominates epoch items e 0 then Some e else first_max epoch items (i + 1)

let max_epoch_by epoch items = first_max epoch items 0

let max_epoch epochs = max_epoch_by Fun.id (Array.of_list epochs)

let next_epoch ~k epochs =
  if List.length epochs > k then
    invalid_arg "Epoch.next_epoch: more than k epochs";
  let cap = capacity ~k in
  let in_range x = x >= 1 && x <= cap in
  let used = List.concat_map (fun e -> List.filter in_range e.a) epochs in
  let used = List.sort_uniq Int.compare used in
  (* |used| <= k*k < K, so a fresh s exists; take the smallest for
     determinism. *)
  let rec fresh candidate =
    if mem candidate used then fresh (candidate + 1) else candidate
  in
  let s = fresh 1 in
  let heads =
    List.filter_map (fun e -> if in_range e.s then Some e.s else None) epochs
    |> List.sort_uniq Int.compare
  in
  (* Pad [heads] to exactly k elements with the smallest unused ground-set
     elements distinct from s. *)
  let rec pad acc candidate =
    if List.length acc >= k then List.sort_uniq Int.compare acc
    else if candidate > cap then List.sort_uniq Int.compare acc
    else if candidate = s || mem candidate acc then pad acc (candidate + 1)
    else pad (candidate :: acc) (candidate + 1)
  in
  let a = pad heads 1 in
  { s; a }

let arbitrary rng ~k =
  let cap = capacity ~k in
  let s = Sim.Rng.int_in rng 1 cap in
  let rec draw acc =
    if List.length acc >= k then List.sort_uniq Int.compare acc
    else
      let x = Sim.Rng.int_in rng 1 cap in
      if mem x acc then draw acc else draw (x :: acc)
  in
  { s; a = draw [] }

let pp ppf e =
  Format.fprintf ppf "(%d,{%s})" e.s
    (String.concat "," (List.map string_of_int e.a))
