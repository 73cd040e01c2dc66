(** Protocol messages (Figs. 2, 3 and 5).

    A {!cell} is the [(wsn, value)] pair stored by servers; the regular
    register of Fig. 2 always uses [sn = 0], so cell equality degenerates to
    value equality there.  [helping = None] is the paper's [⊥].

    Envelopes add the communication-substrate fields: the register-instance
    id [inst] (the SWMR/MWMR compositions multiplex many register instances
    over the same servers, each with its own server variables — §5), and
    the data-link round tag [round] that matches acknowledgments to the
    broadcast they answer.  Per the remark in §3.1, the register algorithms
    themselves need no sequence numbers on messages: the round tag belongs
    to the ss-broadcast/data-link layer (it is the generalized alternating
    bit of footnote 3) and is corruptible by transient faults like any
    other link state. *)

type cell = { sn : Seqnum.t; v : Value.t }

val cell_equal : cell -> cell -> bool

val bot_cell : cell
(** [{sn = 0; v = Bot}] — the conventional content of an unwritten cell. *)

type help = cell option
(** [None] is the paper's [⊥]. *)

val help_equal : help -> help -> bool

type to_server =
  | Write of cell  (** WRITE(v) / WRITE(wsn, v) *)
  | New_help of cell  (** NEW_HELP_VAL(v) / NEW_HELP_VAL(wsn, v) *)
  | Read of bool  (** READ(new_read) *)

type to_client =
  | Ack_write of help  (** ACK_WRITE(helping_val) *)
  | Ack_read of cell * help  (** ACK_READ(last_val, helping_val) *)

type server_envelope = {
  round : int;
  client : int;
  inst : int;
  body : to_server;
  span : Obs.Trace_ctx.span;
}
(** [span] is pure observability metadata: the causal span of the
    broadcast round that carries this message.  It takes part in no
    protocol decision, is excluded from model-checker fingerprints, and
    does not count toward the wire-byte estimate. *)

type client_envelope = {
  round : int;
  server : int;
  body : to_client;
  cause : Obs.Trace_ctx.span;
  span_id : int;
}
(** An acknowledgment's causal span is a child of [cause] (the span of
    the request it answers, {!Obs.Trace_ctx.none} for unsolicited
    chatter) with id [span_id] (0 for debris with no causal context).
    The envelope carries the two fields instead of the span, which is
    built by {!client_span} only when a sink reads it.  Like a request's
    [span], they take part in no protocol decision and do not count toward
    the wire-byte estimate. *)

val client_span : client_envelope -> Obs.Trace_ctx.span

val class_of_to_server : to_server -> Obs.Event.msg_class

val class_of_to_client : to_client -> Obs.Event.msg_class

val server_envelope_bytes : server_envelope -> int
(** Serialized-size estimate (header fields at 4 bytes each, 1-byte
    constructor tags, {!Value.wire_bytes} payloads) for traffic
    accounting. *)

val client_envelope_bytes : client_envelope -> int

val arbitrary_cell : Sim.Rng.t -> cell
(** Random cell for fault injection (random small [sn], random value). *)
