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
  | Stabilized of { time : int }
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
  | Stabilized { time }
  | Mark { time; _ } -> time

let span = function
  | Send { span; _ }
  | Recv { span; _ }
  | Op_invoke { span; _ }
  | Op_return { span; _ }
  | Phase { span; _ } -> span
  | Drop _ | Fault_injected _ | Stabilized _ | Mark _ -> Trace_ctx.none

let peer_to_json = function
  | Client i -> Json.Str (Printf.sprintf "c%d" i)
  | Server i -> Json.Str (Printf.sprintf "s%d" i)

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
  | Stabilized { time } -> base "stabilized" time []
  | Mark { time; label } -> base "mark" time [ ("label", Json.Str label) ]

let pp ppf e = Json.pp ppf (to_json e)
