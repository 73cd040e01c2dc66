(** Event dispatch.

    One hub lives next to each engine; instrumented code emits typed
    events into it.  A sink is a function over events; the hub calls
    every attached sink, in attach order, with every event.  With no
    sink attached the hub is inert: {!active} is false and hot paths are
    expected to guard event construction on it, so the only cost of the
    instrumentation is one load. *)

type t

val create : unit -> t

val active : t -> bool
(** True iff at least one sink is attached.  Hot paths should check this
    before allocating an event. *)

val attach : t -> (Event.t -> unit) -> unit
(** Add a sink; sinks stay attached for the hub's lifetime.  A traced
    file ({!Tracefile.write}) and an in-memory {!record} may share one
    hub. *)

val record : t -> unit -> Event.t list
(** Attach an in-memory sink; the returned function gives the events
    recorded so far, oldest first. *)

val emit : t -> Event.t -> unit
(** Deliver to every sink; no-op when inactive. *)

val next_op_id : t -> int
(** Allocate a fresh operation id (monotonic per hub, independent of
    whether sinks are attached — op ids are stable across
    instrumentation settings). *)
