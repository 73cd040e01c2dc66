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

let params_codec () =
  Json.(
    record (fun n f mode -> (n, f, mode))
    |> field "n" int (fun (n, _, _) -> n)
    |> field "f" int (fun (_, f, _) -> f)
    |> field "mode" string (fun (_, _, mode) -> mode)
    |> seal)

let msg_stats_codec () =
  Json.(
    record (fun sent recv bytes -> { sent; recv; bytes })
    |> field "sent" int (fun m -> m.sent)
    |> field "recv" int (fun m -> m.recv)
    |> field "bytes" int (fun m -> m.bytes)
    |> seal)

let codec () =
  let open Json in
  (* Present, possibly null: a bare [nullable] would also accept a report
     without the member. *)
  let stabilization = codec (encode (nullable int)) (decode (nullable int)) in
  record
    (fun experiment seed params messages ops stabilization counters extra ->
      let t = create ~experiment ~seed in
      let params = Some params in
      { t with params; messages; ops; stabilization; counters; extra })
  |> field "experiment" string (fun t -> t.experiment)
  |> field "seed" int (fun t -> t.seed)
  |> field "params" (params_codec ()) (fun t ->
         Option.value t.params ~default:(0, 0, "unset"))
  |> field "messages" (assoc (msg_stats_codec ())) (fun t -> t.messages)
  |> field "ops" (assoc (Metrics.summary_codec ())) (fun t -> t.ops)
  |> field "stabilization_time" stabilization (fun t -> t.stabilization)
  |> field "counters" (assoc int) (fun t -> t.counters)
  |> field ~default:[] "extra" (assoc raw) (fun t -> t.extra)
  |> seal |> with_schema schema_version

let to_json t = Json.encode (codec ()) t

let of_json j = Json.decode (codec ()) "report" j
