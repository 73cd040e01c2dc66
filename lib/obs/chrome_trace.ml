(* Export to the Chrome trace_event JSON format (the "JSON Object
   Format": {"traceEvents":[...]}), loadable in Perfetto / chrome://tracing.

   Mapping: every causal span becomes one complete ("X") slice spanning
   its subtree's first..last event, placed on the thread of the peer that
   owns the span (the client for operation and broadcast-round spans, the
   server for reply spans); span-less fault and mark events become
   instant ("i") events.  Virtual-clock ticks are exported 1:1 as
   microseconds. *)

type owner = Peer of Event.peer | Ambient

(* Disjoint, deterministic thread ids: servers on odd, clients on even. *)
let tid_of_owner = function
  | Ambient -> 0
  | Peer (Event.Server i) -> (2 * i) + 1
  | Peer (Event.Client i) -> (2 * i) + 2

let owner_name = function
  | Ambient -> "(ambient)"
  | Peer p -> Event.peer_name p

let span_owner (t : Tracefile.tree) =
  match t.Tracefile.events with
  | Event.Op_invoke _ :: _ -> (
    (* The op span belongs to the invoking client; recover the peer from
       the first message the operation sent. *)
    match
      List.find_map
        (fun e ->
          match e with
          | Event.Send { src; _ } -> Some (Peer src)
          | Event.Recv _ | Event.Drop _ | Event.Op_invoke _
          | Event.Op_return _ | Event.Phase _ | Event.Fault_injected _
          | Event.Mark _ -> None)
        (List.concat_map (fun c -> c.Tracefile.events) t.Tracefile.children)
    with
    | Some o -> o
    | None -> Ambient)
  | Event.Send { src; _ } :: _ -> Peer src
  | Event.Recv { dst; _ } :: _ -> Peer dst
  | Event.Phase { server; _ } :: _ -> Peer (Event.Server server)
  | (Event.Drop _ | Event.Op_return _ | Event.Fault_injected _ | Event.Mark _)
    :: _
  | [] -> Ambient

let slice ~name ~cat ~ts ~dur ~tid ~args =
  Json.Obj
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str "X");
      ("ts", Json.Int ts);
      ("dur", Json.Int dur);
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj args);
    ]

let instant ~name ~cat ~ts =
  Json.Obj
    [
      ("name", Json.Str name);
      ("cat", Json.Str cat);
      ("ph", Json.Str "i");
      ("ts", Json.Int ts);
      ("pid", Json.Int 1);
      ("tid", Json.Int 0);
      ("s", Json.Str "g");
    ]

let thread_meta ~tid ~name =
  Json.Obj
    [
      ("name", Json.Str "thread_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int 1);
      ("tid", Json.Int tid);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

let to_json events =
  let trees = Tracefile.trees events in
  let threads = ref [] in
  let note_thread o =
    let tid = tid_of_owner o in
    if not (List.mem_assoc tid !threads) then
      threads := (tid, owner_name o) :: !threads
  in
  let slices = ref [] in
  let rec walk t =
    let o = span_owner t in
    note_thread o;
    let lo, hi = Tracefile.span_interval t in
    slices :=
      slice ~name:(Tracefile.span_label t) ~cat:"span" ~ts:lo ~dur:(hi - lo)
        ~tid:(tid_of_owner o)
        ~args:
          [
            ("trace", Json.Int t.Tracefile.trace);
            ("span", Json.Int t.Tracefile.span);
            ("parent", Json.Int t.Tracefile.parent);
          ]
      :: !slices;
    List.iter walk t.Tracefile.children
  in
  List.iter walk trees;
  let instants =
    List.filter_map
      (fun e ->
        match e with
        | Event.Fault_injected { time; target; _ } ->
          Some (instant ~name:("fault " ^ target) ~cat:"fault" ~ts:time)
        | Event.Mark { time; label } ->
          Some (instant ~name:label ~cat:"mark" ~ts:time)
        | Event.Send _ | Event.Recv _ | Event.Drop _ | Event.Op_invoke _
        | Event.Op_return _ | Event.Phase _ -> None)
      events
  in
  let metas =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) !threads
    |> List.map (fun (tid, name) -> thread_meta ~tid ~name)
  in
  Json.Obj
    [
      ("traceEvents", Json.List (metas @ List.rev !slices @ instants));
      ("displayTimeUnit", Json.Str "ms");
    ]

(* --- validation ------------------------------------------------------- *)

let validate_entry ctx j =
  let open Json in
  let* ph = str_field ctx "ph" j in
  let* _ = int_field ctx "pid" j in
  let* _ = int_field ctx "tid" j in
  match ph with
  | "X" ->
    let* _ = str_field ctx "name" j in
    let* ts = int_field ctx "ts" j in
    let* dur = int_field ctx "dur" j in
    if ts < 0 || dur < 0 then Error (ctx ^ ": negative ts/dur") else Ok ()
  | "i" ->
    let* _ = str_field ctx "name" j in
    let* _ = int_field ctx "ts" j in
    let* _ = str_field ctx "s" j in
    Ok ()
  | "M" ->
    let* _ = str_field ctx "name" j in
    Ok ()
  | other -> Error (Printf.sprintf "%s: unexpected phase %S" ctx other)

let validate j =
  Result.map ignore (Json.list_field "chrome" "traceEvents" validate_entry j)
