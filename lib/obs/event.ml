type peer = Client of int | Server of int

type msg_class =
  | Write
  | New_help
  | Read
  | Ack_write
  | Ack_read
  | Link_ack

type op_kind = [ `Read | `Write ]

type t =
  | Send of {
      time : int;
      src : peer;
      dst : peer;
      cls : msg_class;
      bytes : int;
      span : Trace_ctx.span;
    }
  | Recv of {
      time : int;
      src : peer;
      dst : peer;
      cls : msg_class;
      bytes : int;
      span : Trace_ctx.span;
    }
  | Drop of { time : int; link : string; cls : msg_class option }
  | Op_invoke of {
      time : int;
      id : int;
      proc : string;
      reg : string;
      op : op_kind;
      span : Trace_ctx.span;
    }
  | Op_return of {
      time : int;
      id : int;
      proc : string;
      reg : string;
      op : op_kind;
      ok : bool;
      span : Trace_ctx.span;
    }
  | Phase of { time : int; server : int; phase : string; span : Trace_ctx.span }
  | Fault_injected of { time : int; target : string; hits : int }
  | Mark of { time : int; label : string }

let all_classes = [ Write; New_help; Read; Ack_write; Ack_read; Link_ack ]

let class_index = function
  | Write -> 0
  | New_help -> 1
  | Read -> 2
  | Ack_write -> 3
  | Ack_read -> 4
  | Link_ack -> 5

let class_name = function
  | Write -> "WRITE"
  | New_help -> "NEW_HELP_VAL"
  | Read -> "READ"
  | Ack_write -> "ACK_WRITE"
  | Ack_read -> "ACK_READ"
  | Link_ack -> "LINK_ACK"

let op_name = function `Read -> "read" | `Write -> "write"

let time = function
  | Send { time; _ }
  | Recv { time; _ }
  | Drop { time; _ }
  | Op_invoke { time; _ }
  | Op_return { time; _ }
  | Phase { time; _ }
  | Fault_injected { time; _ }
  | Mark { time; _ } -> time

let span = function
  | Send { span; _ }
  | Recv { span; _ }
  | Op_invoke { span; _ }
  | Op_return { span; _ }
  | Phase { span; _ } -> span
  | Drop _ | Fault_injected _ | Mark _ -> Trace_ctx.none

let class_of_name s =
  match List.find_opt (fun c -> String.equal (class_name c) s) all_classes with
  | Some c -> Ok c
  | None -> Error (Printf.sprintf "unknown message class %S" s)

let op_of_name = function
  | "read" -> Ok `Read
  | "write" -> Ok `Write
  | s -> Error (Printf.sprintf "unknown operation %S" s)

let peer_name = function
  | Client i -> Printf.sprintf "c%d" i
  | Server i -> Printf.sprintf "s%d" i

(* Only the spelling [peer_name] writes is accepted ("c07" is not). *)
let peer_of_name s =
  let peer =
    match int_of_string_opt (String.sub s 1 (String.length s - 1)) with
    | Some i when s.[0] = 'c' -> Some (Client i)
    | Some i when s.[0] = 's' -> Some (Server i)
    | Some _ | None | (exception Invalid_argument _) -> None
  in
  match peer with
  | Some p when String.equal (peer_name p) s -> Ok p
  | Some _ | None -> Error (Printf.sprintf "unknown peer %S" s)

let peer_to_json p = Json.Str (peer_name p)

let to_json e =
  let base kind time rest =
    Json.Obj (("ev", Json.Str kind) :: ("t", Json.Int time) :: rest)
  in
  match e with
  | Send { time; src; dst; cls; bytes; span } ->
    base "send" time
      ([
         ("src", peer_to_json src);
         ("dst", peer_to_json dst);
         ("msg", Json.Str (class_name cls));
         ("bytes", Json.Int bytes);
       ]
      @ Trace_ctx.fields span)
  | Recv { time; src; dst; cls; bytes; span } ->
    base "recv" time
      ([
         ("src", peer_to_json src);
         ("dst", peer_to_json dst);
         ("msg", Json.Str (class_name cls));
         ("bytes", Json.Int bytes);
       ]
      @ Trace_ctx.fields span)
  | Drop { time; link; cls } ->
    base "drop" time
      [
        ("link", Json.Str link);
        ( "msg",
          match cls with
          | Some c -> Json.Str (class_name c)
          | None -> Json.Null );
      ]
  | Op_invoke { time; id; proc; reg; op; span } ->
    base "op-invoke" time
      ([
         ("op_id", Json.Int id);
         ("proc", Json.Str proc);
         ("reg", Json.Str reg);
         ("op", Json.Str (op_name op));
       ]
      @ Trace_ctx.fields span)
  | Op_return { time; id; proc; reg; op; ok; span } ->
    base "op-return" time
      ([
         ("op_id", Json.Int id);
         ("proc", Json.Str proc);
         ("reg", Json.Str reg);
         ("op", Json.Str (op_name op));
         ("ok", Json.Bool ok);
       ]
      @ Trace_ctx.fields span)
  | Phase { time; server; phase; span } ->
    base "phase" time
      ([ ("server", Json.Int server); ("phase", Json.Str phase) ]
      @ Trace_ctx.fields span)
  | Fault_injected { time; target; hits } ->
    base "fault" time
      [ ("target", Json.Str target); ("hits", Json.Int hits) ]
  | Mark { time; label } -> base "mark" time [ ("label", Json.Str label) ]

let of_json ctx j =
  let open Json in
  let get name c =
    let* v = required ctx name j in
    decode c (ctx ^ "." ^ name) v
  in
  let peer = enum peer_name peer_of_name in
  let cls = enum class_name class_of_name in
  let op = enum op_name op_of_name in
  let span () = decode (Trace_ctx.codec ()) ctx j in
  let* kind = get "ev" string in
  let* time = get "t" int in
  match kind with
  | "send" | "recv" ->
    let* src = get "src" peer in
    let* dst = get "dst" peer in
    let* cls = get "msg" cls in
    let* bytes = get "bytes" int in
    let* span = span () in
    if String.equal kind "send" then
      Ok (Send { time; src; dst; cls; bytes; span })
    else Ok (Recv { time; src; dst; cls; bytes; span })
  | "drop" ->
    let* link = get "link" string in
    let* cls = get "msg" (nullable cls) in
    Ok (Drop { time; link; cls })
  | "op-invoke" | "op-return" ->
    let* id = get "op_id" int in
    let* proc = get "proc" string in
    let* reg = get "reg" string in
    let* op = get "op" op in
    if String.equal kind "op-invoke" then
      let* span = span () in
      Ok (Op_invoke { time; id; proc; reg; op; span })
    else
      let* ok = get "ok" bool in
      let* span = span () in
      Ok (Op_return { time; id; proc; reg; op; ok; span })
  | "phase" ->
    let* server = get "server" int in
    let* phase = get "phase" string in
    let* span = span () in
    Ok (Phase { time; server; phase; span })
  | "fault" ->
    let* target = get "target" string in
    let* hits = get "hits" int in
    Ok (Fault_injected { time; target; hits })
  | "mark" ->
    let* label = get "label" string in
    Ok (Mark { time; label })
  | other -> Error (Printf.sprintf "%s: unknown kind %S" ctx other)
