type span = {
  id : int;
  name : string;
  op : int option;
  parent : int option;
  start : float;
  stop : float;
}

type t = {
  mutable spans : span list;
  mutable next_id : int;
  mutable parent : int option;
}

let create () = { spans = []; next_id = 0; parent = None }

let now = Unix.gettimeofday

let fresh t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let record t ~parent ?op ~name f =
  let id = fresh t in
  let start = now () in
  let r = f id in
  t.spans <- { id; name; op; parent; start; stop = now () } :: t.spans;
  r

let span t ?op ~name f = record t ~parent:t.parent ?op ~name (fun _ -> f ())

let add t ~op ~name ~start ~stop =
  t.spans <- { id = fresh t; name; op = Some op; parent = t.parent; start; stop } :: t.spans

let root t ?op ~name f =
  record t ~parent:None ?op ~name (fun id ->
      let saved = t.parent in
      t.parent <- Some id;
      Fun.protect ~finally:(fun () -> t.parent <- saved) f)

let opt sp ?op ~name f = match sp with None -> f () | Some t -> span t ?op ~name f

let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.spans

let durations t names =
  List.filter_map
    (fun s -> if List.mem s.name names then Some (s.stop -. s.start) else None)
    t.spans
  |> Array.of_list

let to_json t0 s =
  let opt_int = function None -> Obs.Json.Null | Some i -> Obs.Json.Int i in
  Obs.Json.Obj
    [
      ("id", Obs.Json.Int s.id);
      ("name", Obs.Json.Str s.name);
      ("op", opt_int s.op);
      ("parent", opt_int s.parent);
      ("start_us", Obs.Json.Float ((s.start -. t0) *. 1e6));
      ("end_us", Obs.Json.Float ((s.stop -. t0) *. 1e6));
    ]

let write t path =
  let all = spans t in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity all in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          output_string oc (Obs.Json.to_string (to_json t0 s));
          output_char oc '\n')
        all)
