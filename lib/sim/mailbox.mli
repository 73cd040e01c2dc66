(** Single-consumer message queue connecting the network to a client fiber.

    Deliveries {!push} messages; the owning fiber takes them one at a
    time with {!recv}, or hands a whole wait to {!collect}: a filter that
    runs on each message inside the delivery that brings it, so that a
    round waiting for many acknowledgments suspends its fiber once, not
    once per acknowledgment.  At most one fiber may wait on a mailbox at
    a time. *)

type 'm t

val create : unit -> 'm t

val push : 'm t -> 'm -> unit
(** Give a message to the waiting fiber — wake a {!recv} with it, or run
    a {!collect}'s filter on it — or enqueue it when no fiber waits. *)

val recv : 'm t -> 'm
(** Block the calling fiber until a message is available, then dequeue it. *)

val collect :
  engine:Engine.t -> deadline:Vtime.t option -> 'm t -> ('m -> bool) -> bool
(** [collect ~engine ~deadline t consider] feeds messages to [consider],
    queued ones first, until it returns [true] (then [collect] returns
    [true]; later messages stay queued) or [deadline] passes (then
    [false]).  Without a deadline it waits as long as it takes.  The
    calling fiber suspends at most once; while it waits, each arriving
    message is considered inside its {!push}, and the fiber resumes only
    when the wait ends.

    The deadline is one engine timer per mailbox, armed when the fiber
    suspends and re-armed at the same instant by each message that does
    not end the wait: it takes the sequence number a timer scheduled
    anew at that moment would get, so it fires at exactly the place in
    (time, seq) order a fresh timer per message would.  A deadline
    already past fires at the current instant, after the events already
    queued there; a message arriving after it fired is left queued.  The
    timer of a finished wait stays queued, inert, until a later wait
    re-arms it or it fires. *)

val drain : 'm t -> 'm list
(** Dequeue everything currently queued, without blocking. *)

val length : 'm t -> int
