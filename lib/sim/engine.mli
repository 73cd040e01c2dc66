(** Discrete-event simulation engine.

    The engine owns virtual time and the queue of pending actions.
    Everything else (links, fibers, fault plans) schedules thunks here.
    Events fire in (time, seq) order: by instant, and within an instant
    first in, first out, in scheduling order, which keeps executions
    deterministic.

    Besides the classic [run] loop the engine exposes the pending set
    ({!ready}) and out-of-order firing ({!fire}) so that a model checker
    can enumerate delivery interleavings instead of following queue
    order. *)

type t

type ready_event = { r_time : Vtime.t; r_seq : int; r_label : string }
(** A queued event as seen by a scheduling policy: its instant, its unique
    sequence number (the handle for {!fire}) and the label it was scheduled
    under ([""] when unlabeled). *)

val create : ?trace:Trace.t -> rng:Rng.t -> unit -> t
(** A fresh engine at time {!Vtime.zero}. [rng] is the root generator from
    which component generators should be {!Rng.split}. *)

val now : t -> Vtime.t

val rng : t -> Rng.t

val trace : t -> Trace.t

val metrics : t -> Obs.Metrics.t
(** The metrics registry of the engine's trace. *)

val hub : t -> Obs.Hub.t
(** The typed-event hub of the engine's trace. *)

val spans : t -> Obs.Trace_ctx.t
(** The causal-span allocator of the engine's trace. *)

val schedule : ?label:string -> t -> delay:Vtime.span -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + max delay 0].  [label]
    tags the event for {!ready}; components use it to identify the
    channel an event belongs to (e.g. ["link:c100->s3"]). *)

val schedule_at : ?label:string -> t -> Vtime.t -> (unit -> unit) -> unit
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

val ready : t -> ready_event list
(** Snapshot of every queued event, sorted by (time, seq) — the choice
    menu for an external scheduling policy.  Does not consume anything. *)

val fire : t -> seq:int -> bool
(** [fire t ~seq] fires the queued event with sequence number [seq]
    regardless of its place in (time, seq) order, advancing the clock to
    [max (now t) time].  Returns [false] if no such event is queued.
    Out-of-order firing never rewinds the clock, so timestamps stay
    monotone. *)

val advance_to : t -> Vtime.t -> unit
(** Push the clock forward to [time] without firing anything (no-op if
    [time] is in the past).  The model checker uses this to give every
    explored step a distinct instant. *)

val fire_labeled : t -> label:string -> not_before:Vtime.t -> bool
(** Fire the (time, seq)-least queued event scheduled under [label] —
    for a link, its FIFO head — after {!advance_to}[ not_before]; the
    same event {!ready} would list first for [label], without building
    the snapshot.  Returns [false], touching nothing, when no queued event
    carries [label]. *)

val pending : t -> int
(** Number of queued events. *)

val quiescent : t -> bool
(** [true] when no events are queued. *)
