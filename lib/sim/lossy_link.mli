(** Directed {e unreliable} link: loss, duplication, reordering, and
    corruptible in-flight contents.

    This is the raw medium underneath the self-stabilizing transport
    ({!Registers.Ss_transport} in the registers library): everything
    {!Link} guarantees, dropped.  Each transmitted packet independently
    vanishes with probability [loss]; a delivered packet is re-delivered
    once more with probability [dup] (after a fresh delay); delays are
    sampled per packet with no FIFO correction, so reordering is the
    norm. *)

type 'm t

val create :
  engine:Engine.t ->
  rng:Rng.t ->
  delay:Link.sampler ->
  ?loss:float ->
  ?dup:float ->
  ?classify:('m -> Obs.Event.msg_class) ->
  name:string ->
  deliver:('m -> unit) ->
  unit ->
  'm t
(** [loss] and [dup] default to [0.0].  [classify], when given, labels
    the typed [Drop] events this link emits for lost packets (losses
    always bump the ["net.dropped"] counter). *)

val set_loss : 'm t -> float -> unit
(** Runtime chaos knob: retune the loss probability of a live link.
    Accepts the full [\[0,1\]] range — [1.0] is a directed partition that
    drops every subsequent packet until lowered again.  A change emits an
    [Obs.Event.Mark] (["link.<name>.loss:<old>-><new>"]) so chaos windows
    are visible in event traces.  Raises [Invalid_argument] outside
    [\[0,1\]]. *)

val set_dup : 'm t -> float -> unit
(** Runtime chaos knob for the duplication probability; same contract and
    mark as {!set_loss}. *)

val loss : 'm t -> float
(** Current loss probability. *)

val dup : 'm t -> float
(** Current duplication probability. *)

val send : 'm t -> 'm -> unit
(** Transmit one packet (counted in the trace counter ["net.pkts"] even
    when subsequently lost; deliveries bump ["net.msgs"]). *)

val corrupt_in_flight : 'm t -> ('m -> 'm option) -> unit
(** Transient-fault hook: rewrite or drop the packets in flight, newest
    first. *)
