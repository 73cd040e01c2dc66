(** Causal span identifiers.

    A {!span} names one node in the causal tree of a client operation:
    the operation itself is a root span, every ss-broadcast round and
    every reply message gets a child span, and parent links tie them
    back together.  Ids are allocated from a deterministic per-run
    counter (owned by the engine), so two runs with the same seed
    assign byte-identical ids — and allocation happens whether or not
    any sink is attached, so enabling tracing cannot perturb a run.

    The zero span {!none} marks unattributed events (e.g. adversary
    noise injected outside any client operation); it is never allocated
    and exporters render it as the absence of causal context. *)

type span = private { trace : int; id : int; parent : int }
(** [trace] is the id of the root span of the tree this span belongs
    to; [id] is unique per run (1-based); [parent] is the id of the
    parent span, 0 for roots. *)

type t
(** A span allocator: a deterministic counter. *)

val none : span
(** The zero span: no causal context.  [none.id = 0]. *)

val is_none : span -> bool

val create : unit -> t
(** Fresh allocator; the first allocated id is 1. *)

val root : t -> span
(** Allocate a root span (its own trace id, parent 0). *)

val child : t -> span -> span
(** Allocate a child of the given span, inheriting its trace id.
    [child t none] degenerates to [root t] so that unattributed
    contexts still produce well-formed trees. *)

val fresh : t -> int
(** Allocate a span id without building the span: [child t parent] is
    [child_with parent ~id:(fresh t)].  A message that carries its span
    as a parent and an id pays for the record only when a sink reads
    it. *)

val child_with : span -> id:int -> span
(** The child of [parent] with the id [id] drew from {!fresh} (a root
    when [parent] is {!none}); {!none} when [id] is 0. *)

val allocated : t -> int
(** Number of spans allocated so far. *)

val codec : unit -> span Json.codec
(** The object [{trace, span, parent}]. *)

val fields : span -> (string * Json.t) list
(** {!codec}'s members, for event envelopes. *)
