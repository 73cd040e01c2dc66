(** Polymorphic binary min-heap, used as the simulator's event queue.

    The heap itself is {e not} stable: elements that compare equal pop in
    unspecified order.  Callers that need FIFO behaviour among equal keys
    must disambiguate inside [cmp] — {!Engine} does this by tagging every
    event with a monotonically increasing sequence number, which is what
    makes same-instant events fire in exact scheduling order. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
(** A fresh empty heap ordered by [cmp] (minimum first). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum element without removing it. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum element. *)

val take : 'a t -> ('a -> bool) -> 'a option
(** [take t pred] removes and returns the least element (by [cmp])
    satisfying [pred], or [None] if none does.  O(n) scan plus O(log n)
    repair; used by the model checker to fire a chosen event out of heap
    order. *)

val clear : 'a t -> unit

val iter_unordered : 'a t -> ('a -> unit) -> unit
(** Visit every element in unspecified order (inspection only). *)
