type cell = { sn : Seqnum.t; v : Value.t }

let cell_equal c1 c2 = c1 == c2 || (c1.sn = c2.sn && Value.equal c1.v c2.v)

let bot_cell = { sn = Seqnum.zero; v = Value.bot }

type help = cell option

let help_equal h1 h2 =
  match (h1, h2) with
  | None, None -> true
  | Some c1, Some c2 -> cell_equal c1 c2
  | (None | Some _), _ -> false

type to_server = Write of cell | New_help of cell | Read of bool

type to_client = Ack_write of help | Ack_read of cell * help

type server_envelope = {
  round : int;
  client : int;
  inst : int;
  body : to_server;
  span : Obs.Trace_ctx.span;
}

type client_envelope = {
  round : int;
  server : int;
  body : to_client;
  cause : Obs.Trace_ctx.span;
  span_id : int;
}

let client_span (env : client_envelope) =
  Obs.Trace_ctx.child_with env.cause ~id:env.span_id

let class_of_to_server : to_server -> Obs.Event.msg_class = function
  | Write _ -> Obs.Event.Write
  | New_help _ -> Obs.Event.New_help
  | Read _ -> Obs.Event.Read

let class_of_to_client : to_client -> Obs.Event.msg_class = function
  | Ack_write _ -> Obs.Event.Ack_write
  | Ack_read _ -> Obs.Event.Ack_read

let cell_bytes c = 8 + Value.wire_bytes c.v

let help_bytes = function None -> 1 | Some c -> 1 + cell_bytes c

(* 1-byte constructor tag + payload; envelope headers count their integer
   fields at 4 bytes each. *)
let to_server_bytes = function
  | Write c | New_help c -> 1 + cell_bytes c
  | Read _ -> 2

let to_client_bytes = function
  | Ack_write h -> 1 + help_bytes h
  | Ack_read (c, h) -> 1 + cell_bytes c + help_bytes h

let server_envelope_bytes (env : server_envelope) = 12 + to_server_bytes env.body

let client_envelope_bytes (env : client_envelope) = 8 + to_client_bytes env.body

let arbitrary_cell rng =
  { sn = Sim.Rng.int rng 1024; v = Value.arbitrary rng }
