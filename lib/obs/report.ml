let schema_version = "stabreg/run-report/v1"

type msg_stats = { sent : int; recv : int; bytes : int }

type t = {
  experiment : string;
  seed : int;
  mutable params : (int * int * string) option;
  mutable messages : (string * msg_stats) list; (* insertion order *)
  mutable ops : (string * Metrics.summary) list;
  mutable stabilization : int option;
  mutable counters : (string * int) list;
  mutable extra : (string * Json.t) list;
}

let create ~experiment ~seed =
  {
    experiment;
    seed;
    params = None;
    messages = [];
    ops = [];
    stabilization = None;
    counters = [];
    extra = [];
  }

let experiment t = t.experiment

let set_params t ~n ~f ~mode = t.params <- Some (n, f, mode)

let has_params t = t.params <> None

let set_stabilization t ticks = t.stabilization <- Some ticks

let add_message_class t ~name ~sent ~recv ~bytes =
  t.messages <- t.messages @ [ (name, { sent; recv; bytes }) ]

let add_op_summary t ~name s = t.ops <- t.ops @ [ (name, s) ]

let set_counters t cs = t.counters <- cs

let add_extra t key v = t.extra <- t.extra @ [ (key, v) ]

let op_prefix = "op."

let observe_metrics t metrics =
  List.iter
    (fun cls ->
      let name = Event.class_name cls in
      let count key = Metrics.counter metrics (Printf.sprintf key name) in
      let sent = count "msg.sent.%s.count" in
      let recv = count "msg.recv.%s.count" in
      let bytes = count "msg.sent.%s.bytes" in
      if sent > 0 || recv > 0 then add_message_class t ~name ~sent ~recv ~bytes)
    Event.all_classes;
  List.iter
    (fun (name, h) ->
      let plen = String.length op_prefix in
      if
        String.length name > plen
        && String.equal (String.sub name 0 plen) op_prefix
        && Metrics.hist_count h > 0
      then
        add_op_summary t
          ~name:(String.sub name plen (String.length name - plen))
          (Metrics.summary_of_histogram h))
    (Metrics.histograms metrics);
  (* The per-class message counters are already structured above; keep the
     counters section to the scalar diagnostics. *)
  set_counters t
    (List.filter
       (fun (name, _) ->
         not
           (String.length name >= 4 && String.equal (String.sub name 0 4) "msg."))
       (Metrics.counters metrics))

let to_json t =
  let n, f, mode =
    match t.params with Some p -> p | None -> (0, 0, "unset")
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("experiment", Json.Str t.experiment);
      ("seed", Json.Int t.seed);
      ( "params",
        Json.Obj
          [ ("n", Json.Int n); ("f", Json.Int f); ("mode", Json.Str mode) ] );
      ( "messages",
        Json.Obj
          (List.map
             (fun (name, (m : msg_stats)) ->
               ( name,
                 Json.Obj
                   [
                     ("sent", Json.Int m.sent);
                     ("recv", Json.Int m.recv);
                     ("bytes", Json.Int m.bytes);
                   ] ))
             t.messages) );
      ( "ops",
        Json.Obj
          (List.map (fun (name, s) -> (name, Metrics.summary_to_json s)) t.ops)
      );
      ( "stabilization_time",
        match t.stabilization with Some d -> Json.Int d | None -> Json.Null );
      ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) t.counters) );
      ("extra", Json.Obj t.extra);
    ]

(* --- schema validation --- *)

let msg_stats_of_json ctx j =
  let open Json in
  let* sent = int_field ctx "sent" j in
  let* recv = int_field ctx "recv" j in
  let* bytes = int_field ctx "bytes" j in
  Ok { sent; recv; bytes }

let validate j =
  let open Json in
  let ctx = "report" in
  let* () = expect_schema ctx schema_version j in
  let* _ = str_field ctx "experiment" j in
  let* _ = int_field ctx "seed" j in
  let* params = required ctx "params" j in
  let* _ = int_field "params" "n" params in
  let* _ = int_field "params" "f" params in
  let* _ = str_field "params" "mode" params in
  let* _ = obj_field ctx "messages" msg_stats_of_json j in
  let* _ = obj_field ctx "ops" Metrics.summary_of_json j in
  let* () =
    match member "stabilization_time" j with
    | Some (Null | Int _) -> Ok ()
    | _ -> Error "report.stabilization_time: expected null or an integer"
  in
  let* _ = obj_field ctx "counters" as_int j in
  Ok ()

(* --- file output --- *)

let mkdir_p dir =
  let parts = String.split_on_char '/' dir in
  ignore
    (List.fold_left
       (fun prefix part ->
         if String.equal part "" then
           if String.equal prefix "" then "/" else prefix
         else begin
           let path =
             if String.equal prefix "" then part
             else if String.equal prefix "/" then "/" ^ part
             else prefix ^ "/" ^ part
           in
           (if not (Sys.file_exists path) then
              try Sys.mkdir path 0o755 with Sys_error _ -> ());
           path
         end)
       "" parts)

let write ~dir t =
  mkdir_p dir;
  let path = Filename.concat dir (t.experiment ^ ".json") in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (to_json t));
  output_char oc '\n';
  close_out oc;
  path
