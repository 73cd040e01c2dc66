let schema_version = "stabreg/trace/v1"

let header_codec () =
  Json.(
    record (fun experiment seed -> (experiment, seed))
    |> field "experiment" string fst
    |> field "seed" int snd
    |> seal |> with_schema schema_version)

let header ~experiment ~seed = Json.encode (header_codec ()) (experiment, seed)

let header_of_json j = Json.decode (header_codec ()) "header" j

(* --- the one writer ---------------------------------------------------- *)

type writer = out_channel

let line oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n'

let create path ~experiment ~seed =
  let oc = File.create path in
  line oc (header ~experiment ~seed);
  oc

let write oc e = line oc (Event.to_json e)

let close = close_out

(* The header line, then one event per line; a trailing newline is
   tolerated, a blank line is not. *)
let validate s =
  let lines = String.split_on_char '\n' s in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let decode n j =
    if n = 1 then Result.map ignore (header_of_json j)
    else Result.map ignore (Event.of_json "event" j)
  in
  let rec check n = function
    | [] -> Ok ()
    | line :: rest -> (
      match Result.bind (Json.parse line) (decode n) with
      | Ok () -> check (n + 1) rest
      | Error e -> Error (Printf.sprintf "line %d: %s" n e))
  in
  match lines with [] -> Error "empty trace file" | _ -> check 1 lines

(* --- causal-tree reconstruction --------------------------------------- *)

type tree = {
  span : int;
  parent : int;
  trace : int;
  events : Event.t list;
  children : tree list;
}

(* Group events by span id, then link children to parents.  Events within
   a span keep emission order (which is time order); children are ordered
   by span id, i.e. by allocation order — again deterministic. *)
let trees events =
  let attributed =
    List.filter (fun e -> not (Trace_ctx.is_none (Event.span e))) events
  in
  let by_span = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let s = Event.span e in
      let prev =
        match Hashtbl.find_opt by_span s.Trace_ctx.id with
        | Some (_, evs) -> evs
        | None -> []
      in
      Hashtbl.replace by_span s.Trace_ctx.id (s, e :: prev))
    attributed;
  let span_ids =
    Hashtbl.fold (fun id _ acc -> id :: acc) by_span []
    |> List.sort Int.compare
  in
  let rec build id =
    let s, evs_rev = Hashtbl.find by_span id in
    let children =
      List.filter_map
        (fun cid ->
          if cid = id then None
          else
            let c, _ = Hashtbl.find by_span cid in
            if c.Trace_ctx.parent = id then Some (build cid) else None)
        span_ids
    in
    {
      span = id;
      parent = s.Trace_ctx.parent;
      trace = s.Trace_ctx.trace;
      events = List.rev evs_rev;
      children;
    }
  in
  (* Roots: spans whose parent was never observed (normally parent = 0). *)
  List.filter_map
    (fun id ->
      let s, _ = Hashtbl.find by_span id in
      if Hashtbl.mem by_span s.Trace_ctx.parent then None else Some (build id))
    span_ids

let tree_for events ~trace =
  List.find_opt (fun t -> t.trace = trace) (trees events)

let rec span_interval t =
  let times = List.map Event.time t.events in
  List.fold_left
    (fun (lo, hi) c ->
      let clo, chi = span_interval c in
      (min lo clo, max hi chi))
    ( List.fold_left min max_int times,
      List.fold_left max min_int times )
    t.children

let describe_event e =
  match e with
  | Event.Send { src; dst; cls; _ } ->
    Printf.sprintf "send %s->%s %s" (Event.peer_name src) (Event.peer_name dst)
      (Event.class_name cls)
  | Event.Recv { src; dst; cls; _ } ->
    Printf.sprintf "recv %s->%s %s" (Event.peer_name src) (Event.peer_name dst)
      (Event.class_name cls)
  | Event.Drop { link; _ } -> Printf.sprintf "drop on %s" link
  | Event.Op_invoke { proc; reg; op; _ } ->
    Printf.sprintf "invoke %s.%s by %s" reg (Event.op_name op) proc
  | Event.Op_return { proc; reg; op; ok; _ } ->
    Printf.sprintf "return %s.%s by %s%s" reg (Event.op_name op) proc
      (if ok then "" else " (failed)")
  | Event.Phase { server; phase; _ } -> Printf.sprintf "s%d %s" server phase
  | Event.Fault_injected { target; _ } -> Printf.sprintf "fault %s" target
  | Event.Mark { label; _ } -> Printf.sprintf "mark %s" label

let span_label t =
  match t.events with
  | Event.Op_invoke { proc; reg; op; _ } :: _ ->
    Printf.sprintf "op %s.%s by %s" reg (Event.op_name op) proc
  | Event.Send { cls; _ } :: _ ->
    Printf.sprintf "round %s" (Event.class_name cls)
  | Event.Recv { cls; _ } :: _ ->
    (* A reply span normally starts with its Send at the server; a span
       opening on a Recv means the send was not observed. *)
    Printf.sprintf "reply %s" (Event.class_name cls)
  | Event.Phase _ :: _ -> "phase"
  | (Event.Drop _ | Event.Op_return _ | Event.Fault_injected _ | Event.Mark _)
    :: _
  | [] -> "span"

let pp_tree ppf t =
  let rec go indent node =
    let lo, hi = span_interval node in
    Format.fprintf ppf "%s%s (span %d, t %d..%d, %d ticks)@," indent
      (span_label node) node.span lo hi (hi - lo);
    List.iter
      (fun e ->
        Format.fprintf ppf "%s  @%d %s@," indent (Event.time e)
          (describe_event e))
      node.events;
    List.iter (go (indent ^ "  ")) node.children
  in
  Format.fprintf ppf "@[<v>";
  go "" t;
  Format.fprintf ppf "@]"

(* Per-phase latency breakdown: one row per direct child span (a broadcast
   round or a reply), plus one for the whole operation. *)
let breakdown t =
  let lo, hi = span_interval t in
  let total = (span_label t, lo, hi) in
  let rows =
    List.map
      (fun c ->
        let clo, chi = span_interval c in
        (span_label c, clo, chi))
      t.children
  in
  total :: rows

let pp_breakdown ppf rows =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun (label, lo, hi) ->
      Format.fprintf ppf "%-24s t %6d .. %6d   %6d ticks@," label lo hi
        (hi - lo))
    rows;
  Format.fprintf ppf "@]"
