type better = Higher | Lower

type metric = { name : string; unit : string; better : better; bound : float option }

type t = { workloads : string list; end_to_end : metric list; per_layer : metric list }

let better_to_string = function Higher -> "higher" | Lower -> "lower"

let ( let* ) = Result.bind

module F = Json_read

let metric ~bounded j =
  let* name = F.string "name" j in
  let* unit = F.string "unit" j in
  let* better =
    let* s = F.string "better" j in
    match s with
    | "higher" -> Ok Higher
    | "lower" -> Ok Lower
    | s -> Error (Printf.sprintf "%s: better must be \"higher\" or \"lower\", not %S" name s)
  in
  let* bound = if bounded then Result.map Option.some (F.float "bound" j) else Ok None in
  Ok { name; unit; better; bound }

let of_json j =
  let metrics key ~bounded =
    let* l = F.list key j in
    F.all_ok (metric ~bounded) l
  in
  let* workloads = F.list "workloads" j in
  let* workloads = F.all_ok (F.string "name") workloads in
  let* end_to_end = metrics "end_to_end" ~bounded:true in
  let* per_layer = metrics "per_layer" ~bounded:false in
  Ok { workloads; end_to_end; per_layer }

let load path =
  let* j = F.file path in
  Result.map_error (fun e -> path ^ ": " ^ e) (of_json j)
