(** Directed FIFO reliable link with per-message sampled delays.

    Matches the paper's communication model (Section 2.1): each link is
    FIFO and reliable — no loss, corruption, duplication or creation —
    during normal operation.  Transient faults, however, may arbitrarily
    modify the link state (the messages in transit): {!corrupt_in_flight}
    rewrites it, and {!send} plants spurious messages.  [Registers.Net]
    owns every link of a deployment and applies these faults; protocols
    never reach a link.

    In the synchronous model of Section 3.3, delays on every link touching
    a correct process are bounded; build such links with a bounded
    {!sampler}.

    Each message is one engine event, and every such event of a link runs
    the same action: deliver the oldest message in flight.  That pairing
    holds because arrivals are monotone per link and the engine fires in
    (time, seq) order, so a link's events fire in the order they were
    scheduled.  The action is an {!Engine.recurring} action, registered
    when the link is created, so it lives as long as the engine; the
    messages in flight sit in a ring of arrays that starts at 8 slots
    and doubles, and a delivered message's slot is cleared, so the link
    keeps nothing of a message once it has arrived. *)

type 'm t

type sampler = unit -> Vtime.span

val uniform : Rng.t -> lo:int -> hi:int -> sampler
(** Uniform integer delays in [\[lo, hi\]]. *)

val fixed : int -> sampler

val bimodal : Rng.t -> fast:int * int -> slow:int * int -> slow_probability:float -> sampler
(** Mostly-[fast] delays with occasional [slow] stragglers — a
    heavier-tailed medium that exercises interleavings uniform sampling
    rarely produces. *)

val create : engine:Engine.t -> delay:sampler -> deliver:('m -> unit) -> 'm t
(** [create ~engine ~delay ~deliver] is a link whose receiving end
    processes each message with [deliver].  Every delivery bumps the
    engine-trace counter ["net.msgs"]. *)

val send : ?on_delivered:(unit -> unit) -> 'm t -> 'm -> unit
(** Transmit a message.  Arrival time is [now + delay ()], pushed later if
    needed to preserve FIFO order with messages already in flight.
    [on_delivered] fires when the message's delivery event does, after the
    receiver processed it — and even if a transient fault dropped the
    payload in transit (the delivery slot still happened).  The
    ss-broadcast implementation counts these callbacks to realize the
    synchronized delivery property (return after the (n-2t)-th correct
    delivery) under any scheduling order.  A transient fault plants a
    spurious message the same way. *)

val corrupt_in_flight : 'm t -> ('m -> 'm option) -> unit
(** Transient-fault hook: rewrite each in-transit message; [None] drops it.
    Messages are visited newest first (a rewrite that draws from a
    generator draws in that order).  Arrival times are unchanged, and a
    dropped message still occupies its delivery event: it fires, delivers
    nothing, and still calls its [on_delivered]. *)
