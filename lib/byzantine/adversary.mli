(** The adversary controller: which servers are Byzantine, with which
    strategy, and when that set moves.

    Deploying an adversary wires every server slot: honest slots run the
    {!Registers.Server} automaton, compromised slots run a
    {!Behavior.t}.  The controller keeps {!Registers.Net.set_correct}
    ground truth in sync so the ss-broadcast synchronized-delivery property
    is computed against the servers that are currently correct.

    Mobile Byzantine faults (footnote 1 of the paper): {!restore} hands a
    slot back to the honest automaton {e over arbitrary state} (the state
    is corrupted at the hand-back, since a recovering machine remembers
    nothing trustworthy), and {!compromise} may then strike elsewhere. *)

type t

val deploy :
  net:Registers.Net.t -> rng:Sim.Rng.t -> t
(** Create the [n] server automata and install them all honest. *)

val servers : t -> Registers.Server.t array
(** The honest automata (their state is what transient faults corrupt; a
    compromised slot's automaton is dormant until {!restore}). *)

val server : t -> int -> Registers.Server.t

val compromise : t -> int -> Behavior.t -> unit
(** Make slot [i] Byzantine with the given strategy. *)

val restore : t -> int -> unit
(** Mobile hand-back: slot [i] resumes the honest automaton over
    arbitrary (freshly corrupted) state. *)

val crash : t -> int -> unit
(** Crash-stop slot [i]: it drops every delivery and leaves the correct
    set (crash faults occupy fault slots like Byzantine ones).  A later
    {!recover} turns the episode into a crash-recovery fault. *)

val recover : ?wipe:Behavior.wipe -> ?rng:Sim.Rng.t -> t -> int -> unit
(** Bring slot [i] back as the honest automaton over state rewritten per
    [wipe] (default [`Arbitrary], drawn from [rng] when given so the
    rejoin state can be pinned by a fault plan rather than the adversary's
    stream). *)

val byzantine_ids : t -> int list
(** Currently compromised slots, ascending. *)

val move : t -> from:int -> to_:int -> Behavior.t -> unit
(** Mobile step: {!restore} [from], then {!compromise} [to_]. *)

val roam : t -> (int * Behavior.t) list -> unit
(** Mobile sweep: make [assignments] the {e entire} Byzantine set in one
    step — every currently compromised slot absent from the list is handed
    back to the honest automaton ({!restore}, i.e. {!Behavior.honest} over
    freshly corrupted state), then each listed slot is compromised with its
    strategy.  Keeping the list no longer than the model's [t] realizes the
    footnote-1 mobile adversary: up to [t] simultaneous compromises that
    relocate between quiescence points.  [roam t \[\]] retires the
    adversary entirely. *)
