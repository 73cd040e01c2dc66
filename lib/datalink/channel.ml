type 'p t = {
  rng : Sim.Rng.t;
  cap : int;
  loss : float;
  dup : float;
  mutable transit : 'p list;
}

let create ~rng ~cap ?(loss = 0.1) ?(dup = 0.1) () =
  if cap <= 0 then invalid_arg "Channel.create: capacity must be positive";
  if loss < 0.0 || loss >= 1.0 then
    invalid_arg "Channel.create: loss must be in [0,1)";
  if dup < 0.0 || dup >= 1.0 then
    invalid_arg "Channel.create: dup must be in [0,1)";
  { rng; cap; loss; dup; transit = [] }

let preload t packets =
  let rec take k = function
    | [] -> []
    | _ when k = 0 -> []
    | p :: rest -> p :: take (k - 1) rest
  in
  t.transit <- take t.cap packets

let send t p =
  if List.length t.transit < t.cap && Sim.Rng.float t.rng 1.0 >= t.loss then
    t.transit <- t.transit @ [ p ]

let deliver t =
  match t.transit with
  | [] -> None
  | transit ->
    let i = Sim.Rng.int t.rng (List.length transit) in
    let p = List.nth_opt transit i in
    let keep_copy = Sim.Rng.float t.rng 1.0 < t.dup in
    if not keep_copy then
      t.transit <- List.filteri (fun j _ -> j <> i) transit;
    p

let size t = List.length t.transit

let capacity t = t.cap

let contents t = t.transit
