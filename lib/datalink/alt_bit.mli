(** The footnote-3 self-stabilizing data link: an alternating-bit protocol
    over a bounded-capacity, lossy, duplicating, reordering channel.

    For each message [m], the sender repeatedly transmits the packet
    [(0, m)] until it has received [cap + 1] packets from the receiver
    (at most [cap] can be stale, so at least one acknowledges the current
    phase); then repeatedly transmits [(1, m)] until another [cap + 1]
    packets arrive.  The receiver acknowledges each data packet with its
    bit and executes ss_deliver(m) exactly when it receives [(1, m)]
    immediately after a [(0, m)].

    This module is the executable witness that the six ss-broadcast
    properties assumed by the registers are realizable over arbitrary
    initial link contents; the registers themselves run over the
    abstraction-level implementation in {!Registers.Net}. *)

type 'm session

val create : rng:Sim.Rng.t -> cap:int -> ?loss:float -> ?dup:float -> unit -> 'm session

val scramble : 'm session -> garbage:'m list -> unit
(** Transient fault: fill both channels with garbage packets (random bits
    over the given payloads) and corrupt the sender's phase bit and the
    receiver's last-packet memory. *)

val send : 'm session -> 'm -> (unit, string) result
(** Run the two-phase handshake for one message to completion.
    [Error] only if 100,000 scheduler steps did not complete the
    handshake (possible only under extreme loss rates). *)

val delivered : 'm session -> 'm list
(** Everything the receiver has ss-delivered so far, oldest first.
    Includes pre-stabilization debris from scrambled channel contents. *)

val take_delivered : 'm session -> 'm list
(** Like {!delivered} but also clears the list. *)

val steps : 'm session -> int
(** Total scheduler steps executed (cost metric for experiment E8). *)

val packets_sent : 'm session -> int
