(** The typed event schema of the observability pipeline.

    Every instrumented layer (engine, links, transports, register
    protocols, adversary, fault injector) reports one of these variants
    instead of a formatted string; sinks decide how to render or store
    them.  Times are virtual-clock ticks ([Sim.Vtime.to_int]) — this
    library sits below [sim] and therefore uses plain integers. *)

type peer = Client of int | Server of int

(** Protocol message classes, for per-type traffic accounting.  The first
    five mirror [Registers.Messages]; [Link_ack] is the ss-transport's
    link-layer acknowledgment. *)
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
      (** A packet lost by an unreliable link. *)
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
      (** [Op_invoke]/[Op_return] bracket one register operation; [id]
          pairs them, [reg] names the register class (e.g.
          ["swsr_atomic"]). *)
  | Phase of { time : int; server : int; phase : string; span : Trace_ctx.span }
      (** A server-side protocol phase transition (e.g. handling a WRITE),
          attributed to the span of the message that triggered it. *)
  | Fault_injected of { time : int; target : string; hits : int }
  | Mark of { time : int; label : string }

val all_classes : msg_class list

val class_index : msg_class -> int
(** Dense index in [0, List.length all_classes), for per-class counter
    arrays. *)

val class_name : msg_class -> string

val op_name : op_kind -> string

val time : t -> int

val span : t -> Trace_ctx.span
(** The causal span an event belongs to; {!Trace_ctx.none} for the
    span-less constructors ([Drop], [Fault_injected], [Mark]). *)

val peer_name : peer -> string
(** ["c<id>"] or ["s<id>"], as events and traces spell a peer. *)

val to_json : t -> Json.t

val of_json : t Json.decoder
(** The inverse of {!to_json}: every member its kind carries must be
    present and well-typed, peers must be spelled as {!peer_name} spells
    them, and message classes and operations must be known. *)
