(** A self-stabilizing, FIFO, at-least-once transport over an unreliable
    medium — the engine-integrated counterpart of the footnote-3 data link,
    used by {!Net}'s [`Stabilizing] medium to run the registers over links
    that actually lose, duplicate and reorder packets.

    One {!t} carries one direction of one link.  The sender is
    stop-and-wait with a bounded, wrapping transfer tag (the generalized
    alternating bit): it retransmits the current [(tag, body)] packet 30
    ticks after that packet last went out, for as long as no
    acknowledgment echoing [tag] has returned, then advances the tag and
    takes the next queued message.  The timer runs on each message's own
    transmissions: a message sent while the timer is still queued for an
    earlier one is not retransmitted before its own 30 ticks pass, so on
    links whose round trip is under 30 ticks and that lose nothing, no
    packet is ever sent twice.  The receiver delivers a packet when its
    tag is clockwise-newer than the last delivered tag, acknowledges
    every packet carrying the tag it delivered last, and re-synchronizes
    on a tag it has seen rejected [3] times in a row (only the sender's
    live retransmissions repeat that persistently).

    Self-stabilization contract: transient corruption of either side's tag
    state, or of the packets in flight, causes at most a bounded number of
    anomalous deliveries (loss, duplication or reordering of a few
    messages) before the link is again FIFO/exactly-once — and the
    register protocols tolerate exactly that class of anomaly (corrupted
    link state is part of their fault model). *)

type 'm t

val create :
  engine:Sim.Engine.t ->
  rng:Sim.Rng.t ->
  delay:Sim.Link.sampler ->
  ?loss:float ->
  ?dup:float ->
  ?tag_space:int ->
  ?classify:('m -> Obs.Event.msg_class) ->
  name:string ->
  deliver:('m -> unit) ->
  unit ->
  'm t
(** [tag_space] defaults to 1024 (must exceed a few times the plausible
    number of stale packets in flight).  [classify] labels
    the data link's typed drop events; the acknowledgment link always
    classifies as [Link_ack].  Retransmissions bump the
    ["transport.retrans"] counter. *)

val set_loss : 'm t -> float -> unit
(** Runtime chaos knob: retune the loss probability of both underlying
    media (data and acknowledgment links).  [1.0] partitions the link —
    the stop-and-wait sender keeps retransmitting, so traffic resumes and
    nothing queued is lost once the rate is lowered again. *)

val set_dup : 'm t -> float -> unit
(** Runtime chaos knob for the duplication probability of both media. *)

val send : 'm t -> ?on_delivered:(unit -> unit) -> 'm -> unit
(** Queue a message.  [on_delivered] fires when the sender learns (from
    the acknowledgment) that the receiver delivered it — strictly after
    the delivery itself. *)

val pending : 'm t -> int
(** Messages queued or in transfer. *)

val packets_sent : 'm t -> int

val corrupt : 'm t -> Sim.Rng.t -> unit
(** Transient fault: scramble both endpoints' tag state and the in-flight
    packets. *)
