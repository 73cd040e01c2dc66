(** Byzantine server strategies.

    A Byzantine server "behaves arbitrarily" (§2.1).  A {!t} replaces the
    honest automaton at a server slot: it receives every ss-delivered
    envelope and may answer with anything, to anyone, at any time — each
    strategy here is one point in that arbitrary-behaviour space, chosen
    either to sample it (random strategies) or to be a worst case for a
    specific quorum predicate (the colluding strategies used by the
    bound-tightness experiments). *)

type ctx = {
  net : Registers.Net.t;
  server_id : int;
  rng : Sim.Rng.t;
}

type t = ctx -> Registers.Messages.server_envelope -> unit
(** Invoked on each ss-delivery at the compromised server. *)

val silent : t
(** Never answers: the pure omission adversary (stresses the [n - t]
    ack-wait). *)

type wipe = [ `Arbitrary | `Reset | `Keep ]
(** What a recovering server's volatile state looks like when it rejoins:
    arbitrary (a transient fault drew it), reset to pristine [bot] content
    (lost everything), or kept (crash hit only the process, e.g. a restart
    with durable state).  [`Arbitrary] and [`Reset] make recovery a
    transient fault by construction. *)

val apply_wipe : wipe -> Registers.Server.t -> Sim.Rng.t -> unit
(** Rewrite a server's volatile state per the wipe kind (the generator is
    consumed only by [`Arbitrary]). *)

val crash_recover :
  down_for:Sim.Vtime.span -> wipe:wipe -> Registers.Server.t -> t
(** Crash-recovery fault: drop every delivery for [down_for] ticks (the
    down window starts at the first delivery observed), then resume the
    honest automaton over state rewritten per [wipe]. *)

val crash_after : int -> Registers.Server.t -> t
(** Honest for the first [k] deliveries, then crashed (a benign fault,
    strictly weaker than Byzantine — useful to check the algorithms never
    depend on crashed servers resuming). *)

val honest : Registers.Server.t -> t
(** The correct automaton (used to restore a slot when Byzantine faults
    move away — the state it resumes over is whatever the slot holds). *)

val garbage : t
(** Answers every message with a randomly shaped, randomly valued
    acknowledgment carrying the correct round tag (so it is counted). *)

val frozen : Registers.Server.t -> t
(** Acknowledges like a correct server but never applies writes: it
    forever echoes the state its automaton had when compromised — the
    stale-replay adversary that stresses regularity. *)

val equivocate : t
(** Sends well-formed but per-client-divergent values (derived
    deterministically from the client id), attacking agreement between the
    writer's and the reader's views. *)

val collude_reply :
  cell:Registers.Messages.cell -> Registers.Messages.server_envelope -> Registers.Messages.to_client
(** The acknowledgment {!collude} answers a request with. *)

val collude : cell:Registers.Messages.cell -> t
(** All colluders vouch for the same fabricated cell in both the
    [last_val] and [helping_val] positions.  With enough colluders
    ([>= read_quorum]) this forges a read quorum for a value never written
    — the safety attack the resilience bounds exclude. *)

val flaky : drop_probability:float -> Registers.Server.t -> t
(** Honest, but drops each delivery with the given probability (models a
    server "committing Byzantine failures" only sometimes). *)

val delayed : by:Sim.Vtime.span -> Registers.Server.t -> t
(** Honest, but processes every delivery only after an extra delay —
    violating the zero-processing-time assumption correct servers obey. *)
