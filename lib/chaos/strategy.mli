(** Serializable Byzantine strategy names.

    Chaos schedules must be writable to (and replayable from) JSON, so the
    adversary's per-slot strategies are named data rather than closures.
    {!to_behavior} resolves a name against a deployed adversary into the
    corresponding {!Byzantine.Behavior} — the slot argument matters for the
    strategies that wrap the slot's honest automaton (frozen, flaky,
    delayed, crash). *)

type t =
  | Silent
  | Garbage
  | Equivocate
  | Frozen
  | Collude  (** all colluders vouch for the one {!forged_cell} *)
  | Flaky of float  (** honest, dropping each delivery with this probability *)
  | Delayed of int  (** honest, processing every delivery this many ticks late *)
  | Crash of int  (** honest for that many deliveries, then crashed *)

val forged_cell : Registers.Messages.cell
(** The fixed cell every [Collude] slot vouches for.  Its value is outside
    the workload generators' namespaced-integer value space, so a read
    returning it is detectable as "never written". *)

val default_pool : t array
(** The strategies a generated schedule roams through: every shape of
    arbitrary behaviour that is {e individually} tolerable under the
    resilience bound (no [Collude] — collusion above the bound is a
    deliberate campaign configuration, not background noise). *)

val to_behavior :
  Byzantine.Adversary.t -> slot:int -> t -> Byzantine.Behavior.t

val to_string : t -> string
(** Stable wire names: ["silent"], ["garbage"], ["equivocate"], ["frozen"],
    ["collude"], ["flaky:<p>"], ["delayed:<ticks>"], ["crash:<k>"].  A
    crash that recovers is a schedule event ({!Schedule.Crash}), not a
    strategy. *)

val of_string : string -> (t, string) result

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
