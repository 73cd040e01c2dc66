(** Transient-fault injection.

    The paper's transient faults arbitrarily modify the local variables of
    any process (writer, reader, servers) and the state of the links; after
    an unknown time [tau_no_tr] they stop.  Components register their
    corruptible state here under hierarchical names
    (e.g. ["server.3.cell"], ["client.reader.pwsn"], ["link.s2->r"]); a
    fault plan then corrupts a chosen subset at chosen instants.

    Corruption functions receive a generator so that "arbitrary" values are
    drawn deterministically from the experiment seed. *)

type t

val create : unit -> t

val register : t -> name:string -> (Rng.t -> unit) -> unit
(** Expose one piece of mutable state to the injector. Multiple
    registrations may share a name. *)

val names : t -> string list
(** Registered target names, in registration order (duplicates kept). *)

val inject_matching : t -> rng:Rng.t -> prefix:string -> int
(** Corrupt every target [prefix] matches; returns how many targets were
    hit.  Matching respects dot-separated segment boundaries: a prefix must
    cover whole segments (["server.1"] hits ["server.1"] and
    ["server.1.cell"] but not ["server.10"]); a prefix ending in ['.'] — or
    the empty prefix — plain string-prefix-matches. *)

val inject_all : t -> rng:Rng.t -> int
(** Corrupt every registered target (a full "arbitrary configuration"). *)

val schedule : t -> engine:Engine.t -> at:Vtime.t -> prefix:string -> unit
(** Arrange for [inject_matching ~prefix] to run at instant [at], drawing
    from a generator split off the engine's.  Use prefix [""] for
    everything. *)

(** {2 Crash faults}

    Beyond state corruption, whole processes can crash.  A {e crash-stop}
    fault silences a process forever; a {e crash-recovery} fault brings it
    back after a down window with wiped or arbitrary volatile state — which
    makes recovery a transient fault by construction, exactly the events
    the paper's registers must stabilize from.  Deployments register each
    crashable process once with its crash and recovery actions. *)

val register_process :
  t -> name:string -> crash:(unit -> unit) -> recover:(Rng.t -> unit) -> unit
(** Expose one crashable process under a hierarchical [name] (same
    matching rules as state targets, e.g. ["server.3"]).  [crash] must
    silence it; [recover rng] must resume it, drawing any arbitrary
    rejoin-state from [rng]. *)

val crash_matching : t -> prefix:string -> int
(** Crash every registered process [prefix] matches; returns the number
    hit. *)

val recover_matching : t -> rng:Rng.t -> prefix:string -> int
(** Recover every registered process [prefix] matches; returns the number
    hit. *)

val schedule_crash :
  t ->
  engine:Engine.t ->
  at:Vtime.t ->
  ?down_for:Vtime.span ->
  prefix:string ->
  unit ->
  unit
(** Arrange for the processes matching [prefix] to crash at [at] and — when
    [down_for] is given — recover at [at + down_for] (crash-recovery);
    omitting [down_for] is crash-stop.  Both edges bump a
    ["fault.crash"] / ["fault.recover"] counter and emit an
    {!Obs.Event.Fault_injected} event whose target is
    ["crash:<prefix>"] / ["recover:<prefix>"].  The recovery generator is
    split off the engine's at scheduling time, so the rejoin state depends
    only on the schedule. *)
