type direction = Registers.Net.direction = To_servers | From_servers | Both

type event =
  | Inject of { at : int; prefix : string }
  | Roam of { at : int; assign : (int * Strategy.t) list }
  | Window of {
      at : int;
      duration : int;
      loss : float;
      dup : float;
      dir : direction;
      server : int option;
    }
  | Crash of { at : int; server : int; down_for : int option }

type t = event list

let time = function
  | Inject { at; _ } | Roam { at; _ } | Window { at; _ } | Crash { at; _ } ->
    at

let sort events =
  List.stable_sort (fun a b -> Int.compare (time a) (time b)) events

let disturbance_points events =
  events
  |> List.concat_map (function
       | Inject { at; _ } | Roam { at; _ } -> [ at ]
       | Window { at; duration; _ } -> [ at; at + duration ]
       | Crash { at; down_for = None; _ } -> [ at ]
       | Crash { at; down_for = Some d; _ } -> [ at; at + d ])
  |> List.sort_uniq Int.compare

let direction_to_string = function
  | To_servers -> "to_servers"
  | From_servers -> "from_servers"
  | Both -> "both"

let direction_of_string = function
  | "to_servers" -> Ok To_servers
  | "from_servers" -> Ok From_servers
  | "both" -> Ok Both
  | s -> Error (Printf.sprintf "unknown window direction %S" s)

let assignment () =
  Obs.Json.(
    record (fun slot s -> (slot, s))
    |> field "slot" int fst
    |> field "strategy" (enum Strategy.to_string Strategy.of_string) snd
    |> seal)

let event_to_json e =
  let open Obs.Json in
  let event kind at members =
    Obj (("kind", Str kind) :: ("at", Int at) :: members)
  in
  let opt_int = encode (nullable int) in
  match e with
  | Inject { at; prefix } -> event "inject" at [ ("prefix", Str prefix) ]
  | Roam { at; assign } ->
    event "roam" at [ ("assign", encode (list (assignment ())) assign) ]
  | Window { at; duration; loss; dup; dir; server } ->
    event "window" at
      [
        ("duration", Int duration); ("loss", Float loss); ("dup", Float dup);
        ("dir", Str (direction_to_string dir)); ("server", opt_int server);
      ]
  | Crash { at; server; down_for } ->
    event "crash" at [ ("server", Int server); ("down_for", opt_int down_for) ]

let to_json events = Obs.Json.List (List.map event_to_json events)

let event_of_json ctx j =
  let open Obs.Json in
  let* kind = str_field ctx "kind" j in
  let* at = int_field ctx "at" j in
  match kind with
  | "inject" ->
    let* prefix = str_field ctx "prefix" j in
    Ok (Inject { at; prefix })
  | "roam" ->
    let* assign = list_field ctx "assign" (decode (assignment ())) j in
    Ok (Roam { at; assign })
  | "window" ->
    let* duration = int_field ctx "duration" j in
    let* loss = float_field ctx "loss" j in
    let* dup = float_field ctx "dup" j in
    let* dir = str_field ctx "dir" j in
    let* dir = direction_of_string dir in
    let* server = opt_field ctx "server" as_int j in
    Ok (Window { at; duration; loss; dup; dir; server })
  | "crash" ->
    let* server = int_field ctx "server" j in
    let* down_for = opt_field ctx "down_for" as_int j in
    Ok (Crash { at; server; down_for })
  | k -> Error (Printf.sprintf "%s: unknown event kind %S" ctx k)

let codec =
  Obs.Json.codec to_json (fun ctx j ->
      Result.map sort (Obs.Json.as_list event_of_json ctx j))

let of_json = Obs.Json.decode codec "schedule"

let check ~n events =
  let slot_ok s = s >= 0 && s < n in
  let rate_ok p = p >= 0.0 && p <= 1.0 in
  let event_ok = function
    | Inject { at; _ } -> at >= 0
    | Roam { at; assign } ->
      at >= 0 && List.for_all (fun (s, _) -> slot_ok s) assign
    | Window { at; duration; loss; dup; _ } ->
      at >= 0 && duration >= 0 && rate_ok loss && rate_ok dup
    | Crash { at; down_for; _ } ->
      at >= 0 && (match down_for with Some d -> d > 0 | None -> true)
  in
  match List.find_opt (fun e -> not (event_ok e)) events with
  | None -> Ok ()
  | Some e ->
    Error (Printf.sprintf "schedule: event at %d out of range" (time e))

let event_equal a b =
  match (a, b) with
  | Inject a, Inject b -> a.at = b.at && String.equal a.prefix b.prefix
  | Roam a, Roam b ->
    a.at = b.at
    && List.length a.assign = List.length b.assign
    && List.for_all2
         (fun (sa, ta) (sb, tb) -> sa = sb && Strategy.equal ta tb)
         a.assign b.assign
  | Window a, Window b ->
    a.at = b.at && a.duration = b.duration
    && Float.equal a.loss b.loss
    && Float.equal a.dup b.dup
    && a.dir = b.dir && a.server = b.server
  | Crash a, Crash b ->
    a.at = b.at && a.server = b.server && a.down_for = b.down_for
  | (Inject _ | Roam _ | Window _ | Crash _), _ -> false

let equal a b =
  List.length a = List.length b && List.for_all2 event_equal a b

let pp_event fmt = function
  | Inject { at; prefix } ->
    Format.fprintf fmt "@%d inject %S" at
      (if prefix = "" then "*" else prefix)
  | Roam { at; assign } ->
    Format.fprintf fmt "@%d roam {%s}" at
      (String.concat ", "
         (List.map
            (fun (slot, s) ->
              Printf.sprintf "s%d:%s" slot (Strategy.to_string s))
            assign))
  | Window { at; duration; loss; dup; dir; server } ->
    Format.fprintf fmt "@%d window %dt loss=%g dup=%g %s%s" at duration loss
      dup
      (direction_to_string dir)
      (match server with
      | Some s -> Printf.sprintf " s%d" s
      | None -> "")
  | Crash { at; server; down_for } ->
    Format.fprintf fmt "@%d crash s%d%s" at server
      (match down_for with
      | Some d -> Printf.sprintf " (recover +%d)" d
      | None -> " (stop)")
