(** Discrete-event simulation engine.

    The engine owns virtual time and the queue of pending actions.
    Everything else (links, fibers, fault plans) schedules thunks here,
    or re-arms a {!timer}.
    Events fire in (time, seq) order, and only in that order: by instant,
    and within an instant first in, first out, in scheduling order, which
    keeps executions deterministic.  The seq is an event's place in its
    instant, not a stored number.

    Pending events are slots of a pool the engine owns, which grows by
    doubling and never shrinks, so queueing an event within the next 128
    ticks allocates nothing.  An action that is queued over and over (a
    link's delivery, a retransmission timer) can be registered once as a
    {!recurring} action; queueing it by its handle then stores no
    pointer at all. *)

type t

val create : rng:Rng.t -> unit -> t
(** A fresh engine at time {!Vtime.zero}, with its own metrics registry,
    event hub and span allocator. [rng] is the root generator from which
    component generators should be {!Rng.split}. *)

val now : t -> Vtime.t

val rng : t -> Rng.t

val metrics : t -> Obs.Metrics.t
(** The run's metrics registry: the counters and latency histograms
    instrumented code bumps, which run reports read. *)

val hub : t -> Obs.Hub.t
(** The run's typed-event hub.  With no sink attached nothing is
    formatted or buffered; attach one to see what the run did (the
    [experiments trace] subcommand, [--trace-out FILE]). *)

val spans : t -> Obs.Trace_ctx.t
(** The run's causal-span allocator.  Ids are handed out whether or not
    a sink is attached, so span assignment never depends on
    observability configuration. *)

val schedule : t -> delay:Vtime.span -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + max delay 0]. *)

val schedule_at : t -> Vtime.t -> (unit -> unit) -> unit
(** Like {!schedule} with an absolute instant; instants in the past fire at
    the current time. *)

val run : ?until:Vtime.t -> ?max_events:int -> t -> unit
(** Process events until the queue is empty, [until] is reached, or
    [max_events] events have fired.  Events scheduled exactly at [until]
    still fire.  [run] is exactly iterated {!step} plus the deadline
    bookkeeping. *)

val step : t -> bool
(** Fire exactly the next event in (time, seq) order.  Returns [false]
    (and does nothing) on an empty queue.  [run ?until:None t] is
    equivalent to [while step t do () done]. *)

val pending : t -> int
(** Number of queued events. *)

val quiescent : t -> bool
(** [true] when no events are queued. *)

(** {2 Recurring actions}

    A recurring action is registered once and then queued any number of
    times, each time as an ordinary event: it takes a slot, its place is
    exactly where {!schedule_at} would have put a closure at that point,
    and {!pending}, {!step} and {!run} see it like any other event.  The
    slot keeps only the action's handle, an int, so neither queueing
    nor firing it stores a pointer.

    Registered actions are never released: they live, and keep what they
    capture alive, as long as the engine.  Register an action per
    long-lived component (a link, a transport), not per event. *)

type recurring

val recurring : t -> (unit -> unit) -> recurring
(** [recurring t action] registers [action] with [t] and returns its
    handle, valid with [t] only. *)

val schedule_recurring_at : t -> Vtime.t -> recurring -> unit
(** [schedule_recurring_at t time r] queues the action registered as [r]
    as {!schedule_at} would queue it. *)

val schedule_recurring : t -> delay:Vtime.span -> recurring -> unit
(** [schedule_recurring t ~delay r] queues [r] as {!schedule} would. *)

(** {2 Timers}

    A timer is one event that can be queued again after it fired, or
    moved while it is queued, without allocating.  Queued, it is an
    ordinary event: {!pending}, {!step} and {!run} see it like any
    other.

    A timer borrows a slot of the engine's pool only while it is queued:
    firing gives the slot back, and the timer keeps its own {!due}.  So
    a timer dropped while unqueued, or whose last arming has fired,
    leaves nothing behind in the engine. *)

type timer

val timer : t -> (unit -> unit) -> timer
(** [timer t action] is a timer of [t], not queued, that runs [action]
    each time it fires. *)

val arm : timer -> Vtime.t -> unit
(** [arm tm time] queues [tm] at [time] (clamped to {!now}) at the tail
    of that instant, exactly where {!schedule_at} would queue a new event
    at this point; a queued [tm] leaves its old place first, keeping its
    slot.  Re-arming at the same instant therefore moves the timer behind
    every event scheduled for that instant since it was last armed. *)

val due : timer -> Vtime.t
(** The instant [tm] was last armed for ({!Vtime.zero} if never). *)
