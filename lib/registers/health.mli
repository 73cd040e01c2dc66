(** Per-server responsiveness tracking for one client port.

    Every deadline-bounded collection attempt reports, per server slot,
    whether an acknowledgment arrived before the deadline.  A slot that
    misses [threshold] consecutive attempts becomes a {e suspect}: retry
    attempts stop waiting for it (beyond the read quorum) and it is named
    in any {!Outcome.reason}.  A single answer clears the suspicion — this
    is a failure {e detector} in the eventual style: wrong suspicions are
    possible and harmless, they only shorten waits.  Purely deterministic:
    state is a function of the acknowledgment schedule. *)

type t

val create : ?threshold:int -> n:int -> unit -> t
(** [threshold] consecutive missed attempts before a slot is suspected
    (default 2). *)

val note : t -> server:int -> answered:bool -> unit
(** Record one attempt's evidence for a slot.  An answer resets the miss
    count; out-of-range slots are ignored. *)

val suspects : t -> int list
(** Suspected slots, ascending. *)

val responsive : t -> int
(** [n] minus the number of suspects. *)
