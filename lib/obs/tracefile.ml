let schema_version = "stabreg/trace/v1"

let header ~experiment ~seed =
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("experiment", Json.Str experiment);
      ("seed", Json.Int seed);
    ]

(* --- validation ------------------------------------------------------- *)

let validate_header j =
  let open Json in
  let* () = expect_schema "header" schema_version j in
  let* _ = str_field "header" "experiment" j in
  let* _ = int_field "header" "seed" j in
  Ok ()

let span_fields ctx j =
  let open Json in
  let* _ = int_field ctx "trace" j in
  let* _ = int_field ctx "span" j in
  let* _ = int_field ctx "parent" j in
  Ok ()

let validate_event j =
  let open Json in
  let* kind = str_field "event" "ev" j in
  let ctx = kind in
  let* _ = int_field ctx "t" j in
  match kind with
  | "send" | "recv" ->
    let* _ = str_field ctx "src" j in
    let* _ = str_field ctx "dst" j in
    let* _ = str_field ctx "msg" j in
    let* _ = int_field ctx "bytes" j in
    span_fields ctx j
  | "drop" -> (
    let* _ = str_field ctx "link" j in
    let* v = required ctx "msg" j in
    match v with
    | Null | Str _ -> Ok ()
    | Bool _ | Int _ | Float _ | List _ | Obj _ ->
      Error (ctx ^ ".msg: expected a string or null"))
  | "op-invoke" | "op-return" ->
    let* _ = int_field ctx "op_id" j in
    let* _ = str_field ctx "proc" j in
    let* _ = str_field ctx "reg" j in
    let* _ = str_field ctx "op" j in
    let* _ =
      if String.equal kind "op-return" then bool_field ctx "ok" j else Ok true
    in
    span_fields ctx j
  | "phase" ->
    let* _ = int_field ctx "server" j in
    let* _ = str_field ctx "phase" j in
    span_fields ctx j
  | "fault" ->
    let* _ = str_field ctx "target" j in
    let* _ = int_field ctx "hits" j in
    Ok ()
  | "stabilized" -> Ok ()
  | "mark" ->
    let* _ = str_field ctx "label" j in
    Ok ()
  | other -> Error (Printf.sprintf "event: unknown kind %S" other)

let fold_lines s f init =
  (* Split on '\n', tolerating a trailing newline; blank lines are
     rejected by the per-line callback receiving "". *)
  let lines = String.split_on_char '\n' s in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let rec go acc n = function
    | [] -> acc
    | l :: rest -> (
      match acc with Error _ as e -> e | Ok v -> go (f v n l) (n + 1) rest)
  in
  go (Ok init) 1 lines

let validate s =
  if String.equal s "" then Error "empty trace file"
  else
    fold_lines s
      (fun seen_header n line ->
        (let open Json in
         let* j = parse line in
         let* () =
           if seen_header then validate_event j else validate_header j
         in
         Ok true)
        |> Result.map_error (Printf.sprintf "line %d: %s" n))
      false
    |> Result.map ignore

(* --- causal-tree reconstruction --------------------------------------- *)

type tree = {
  span : int;
  parent : int;
  trace : int;
  events : Event.t list;
  children : tree list;
}

let peer_name = function
  | Event.Client i -> Printf.sprintf "c%d" i
  | Event.Server i -> Printf.sprintf "s%d" i

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
    Printf.sprintf "send %s->%s %s" (peer_name src) (peer_name dst)
      (Event.class_name cls)
  | Event.Recv { src; dst; cls; _ } ->
    Printf.sprintf "recv %s->%s %s" (peer_name src) (peer_name dst)
      (Event.class_name cls)
  | Event.Drop { link; _ } -> Printf.sprintf "drop on %s" link
  | Event.Op_invoke { proc; reg; op; _ } ->
    Printf.sprintf "invoke %s.%s by %s" reg (Event.op_name op) proc
  | Event.Op_return { proc; reg; op; ok; _ } ->
    Printf.sprintf "return %s.%s by %s%s" reg (Event.op_name op) proc
      (if ok then "" else " (failed)")
  | Event.Phase { server; phase; _ } -> Printf.sprintf "s%d %s" server phase
  | Event.Fault_injected { target; _ } -> Printf.sprintf "fault %s" target
  | Event.Stabilized _ -> "stabilized"
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
  | ( Event.Drop _ | Event.Op_return _ | Event.Fault_injected _
    | Event.Stabilized _ | Event.Mark _ )
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
