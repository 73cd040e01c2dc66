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

    After transient corruption of either side's tag state, or of the
    packets in flight, the link returns to FIFO/exactly-once delivery
    once the tags agree again, but meanwhile it may lose, duplicate or
    reorder messages.  There is no stabilization argument for this
    design, and the register protocols do not tolerate every such
    anomaly: when a fault leaves the sender's next tag equal to the
    receiver's last delivered tag, the receiver takes the next message
    for a duplicate, acknowledges it without delivering it, and the
    message is lost for good.  A lost WRITE wedges the writer of
    Figs. 2/3 under [Params.paper_wait], which never re-sends (ROADMAP's
    data-link item, trial 13 of [chaos --family atomic --medium lossy
    --seed 1 --trials 40]). *)

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
(** Queue a message.  [on_delivered] fires when an acknowledgment
    echoing the message's tag returns.  While the two sides' tag state is
    consistent that is strictly after the receiver delivered the
    message; after a transient fault it can fire for a message the
    receiver acknowledged as a duplicate and never delivered (see the
    module doc). *)

val pending : 'm t -> int
(** Messages queued or in transfer. *)

val packets_sent : 'm t -> int

val corrupt : 'm t -> Sim.Rng.t -> unit
(** Transient fault: scramble both endpoints' tag state and the in-flight
    packets. *)
