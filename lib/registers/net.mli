(** The client/server communication fabric: 4n directed FIFO links plus the
    ss-broadcast abstraction of §2.1.

    Each of the [n] server slots is an {!endpoint} whose handler the
    deployment chooses (the honest automaton of {!Server}, or a Byzantine
    strategy).  Each client owns a {!client_port}: an outgoing ss-delivery
    link to every server, an incoming acknowledgment link from every
    server, and a mailbox merging arrivals.

    This module alone knows what a port's links are: it builds them for
    the deployment's {!medium}, sends on them, retunes them
    ({!set_port_chaos}) and applies the transient faults of §2.1 that
    rewrite the messages in transit ({!corrupt_links}) or the port's
    round tag ({!corrupt_round}).  Callers name these faults; they never
    reach a link.

    {2 ss-broadcast realization}

    {!ss_broadcast} schedules an ss-delivery at every server (per-link
    sampled delays, FIFO) and suspends the calling fiber until the
    [(n-2t)]-th delivery at a {e correct} server — exactly the synchronized
    delivery property.  The simulator's ground-truth knowledge of which
    servers are currently Byzantine substitutes for the bounded-capacity
    data-link construction of footnote 3, whose executable model lives in
    [stabreg.datalink] (module [Alt_bit]) and is validated separately:
    registers only rely on the six abstract properties.  The
    [Reliable_fifo] medium provides them verbatim.  The [Stabilizing]
    medium provides them only while its transports' tag state is
    consistent: after a transient fault a transport can acknowledge a
    message it never delivered, and the broadcast then counts a delivery
    that did not happen (see {!Ss_transport} and ROADMAP's data-link
    item).

    The per-port [round] tag matches acknowledgments to broadcasts (the
    §3.1 remark: FIFO makes protocol-level sequence numbers unnecessary;
    the tag is the data-link layer's generalized alternating bit).  It is
    part of the corruptible link state. *)

type endpoint = { mutable on_deliver : Messages.server_envelope -> unit }

type medium =
  | Reliable_fifo
      (** the model of §2.1: FIFO reliable links; synchronized delivery
          realized from the simulator's ground truth *)
  | Stabilizing of { loss : float; dup : float }
      (** every link is an {!Ss_transport} over a lossy, duplicating,
          reordering medium; synchronized delivery realized from the
          transport's own delivery acknowledgments — the registers then
          run end-to-end over genuinely unreliable links *)

type links
(** A port's links under the deployment's medium: FIFO links under
    [Reliable_fifo], {!Ss_transport}s under [Stabilizing].  Only this
    module sends on them, retunes them ({!set_port_chaos}) or corrupts
    them ({!corrupt_links}). *)

type client_port = private {
  client_id : int;
  mailbox : Messages.client_envelope Sim.Mailbox.t;
  mutable round : int;
  links : links;
  health : Health.t;
      (** per-server responsiveness evidence, fed by deadline-bounded
          collection attempts (see {!Collect}) *)
  retry_rng : Sim.Rng.t;
      (** backoff-jitter stream, seeded from
          [Params.retry.jitter_seed + client_id] — deliberately {e not}
          split off the engine's generator so installing a retry policy
          perturbs no other random stream *)
}

type t

type link_delay =
  client:int -> server:int -> to_server:bool -> Sim.Rng.t -> Sim.Link.sampler
(** A delay sampler for the directed link between client [client] and
    server [server], towards the server when [to_server], built from a
    generator split off the engine's.  {!add_client} calls it once per
    link of a new port, with the port's client id: the [n] to-server
    links in server order, then the [n] from-server links in server
    order, under either medium.  Every seeded artifact depends on that
    order, since each call splits the engine's generator. *)

val create :
  engine:Sim.Engine.t ->
  params:Params.t ->
  ?medium:medium ->
  link_delay:link_delay ->
  unit ->
  t
(** In sync mode [link_delay] must respect the mode's [max_delay] for
    links touching correct processes.  [medium] defaults to
    [Reliable_fifo]. *)

type direction = To_servers | From_servers | Both
(** Which of a port's links a chaos knob retunes: the client-to-server
    links, the acknowledgment links, or both. *)

val set_port_chaos :
  client_port ->
  dir:direction ->
  ?server:int ->
  loss:float ->
  dup:float ->
  unit ->
  unit
(** Runtime link-chaos knob (only meaningful under the [Stabilizing]
    medium): retune loss/duplication on the port's transports in
    direction [dir]; [server], when given, restricts the change to the
    links touching that one server slot — [loss = 1.0] on a single slot
    is a directed partition.  A no-op under [Reliable_fifo], where links
    are reliable by assumption and there is nothing to retune. *)

val corrupt_round : client_port -> Sim.Rng.t -> unit
(** Transient fault on the port's data-link round tag: an arbitrary tag
    in [\[0, 1024)]. *)

val corrupt_links : client_port -> Sim.Rng.t -> unit
(** Transient fault on the port's links.  Under [Reliable_fifo] it
    rewrites the bodies of the requests in flight (newest first on each
    link, in server order; their count and round tags survive), then
    plants a spurious acknowledgment, with probability 1/2, on each
    return link.  Under [Stabilizing] it scrambles every transport (both
    ends' tag state and packets in flight), to-server transports first. *)

val engine : t -> Sim.Engine.t

val params : t -> Params.t

val endpoints : t -> endpoint array

val set_correct : t -> (int -> bool) -> unit
(** Ground truth for the synchronized-delivery property; updated by the
    adversary when Byzantine faults are mobile (footnote 1).  The
    predicate is evaluated once per server slot, here. *)

val is_correct : t -> int -> bool

val add_client : t -> id:int -> client_port
(** Create (or return the existing) port for client [id]. *)

val client_ports : t -> (int * client_port) list
(** Every port, by ascending client id. *)

val reply :
  ?parent:Obs.Trace_ctx.span ->
  t ->
  server:int ->
  client:int ->
  Messages.to_client ->
  round:int ->
  unit
(** Send an acknowledgment from server [server] to client [client] on
    their FIFO link.  The acknowledgment gets a fresh causal span id, a
    child of [parent] (default {!Obs.Trace_ctx.none}, which makes it a
    causal root — unsolicited chatter); the span record is built only
    when a sink reads it.  To answer a request, use {!answer}. *)

val answer :
  t -> server:int -> Messages.server_envelope -> Messages.to_client -> unit
(** [answer t ~server req body] is {!reply} from [server] to the client,
    round and span of the request [req]: how a server deployment, honest
    or Byzantine, acknowledges a request. *)

val install_honest_server : t -> Server.t -> unit
(** Wire server slot [Server.id] to the honest automaton. *)

val round_modulus : int
(** Round tags live in [\[0, round_modulus)]: a broadcast's tag is the
    port's previous one plus one, modulo this. *)

val ss_broadcast :
  ?span:Obs.Trace_ctx.span ->
  t ->
  client_port ->
  inst:int ->
  Messages.to_server ->
  int
(** Blocking (fiber) ss-broadcast of one protocol message to all servers;
    bumps the trace counter ["ss.broadcasts"].  Returns the data-link round
    tag used, which the caller passes to {!Collect.attempt_once} —
    capturing it at broadcast time keeps the matching correct even if a
    transient fault corrupts the port's tag while the round trip is in
    flight.  The round gets a fresh causal span, a child of [span]
    (normally the operation's root span from [Instr.start]). *)
