(** The server automaton — lines 19–23 of Figs. 2/3/5, shared verbatim by
    all constructions.

    A server keeps, {e per register instance}, its internal representation
    of the register: [last_val] (the last written value it knows) and
    [helping_val] (the value frozen for a reader whose read is overrun by
    writes; [None] is the paper's [⊥]).  Instances are created on demand
    with arbitrary ([bot]) content, which is exactly the self-stabilization
    setting: the initial configuration is untrusted. *)

type instance = { mutable last_val : Messages.cell; mutable helping : Messages.help }

type t

val create : id:int -> t

val id : t -> int

val handle :
  t ->
  Messages.server_envelope ->
  ack:(Messages.server_envelope -> Messages.to_client -> unit) ->
  unit
(** Process one ss-delivered message and pass the acknowledgment to send
    back to the emitting client, if any, to [ack] with the message:
    - [Write c]: store [c] in [last_val]; ack with the current helping value
      (lines 19–20).
    - [New_help c]: store [Some c] in [helping_val]; no ack (line 21).
    - [Read new]: reset [helping_val] to [⊥] when [new]; ack with
      [(last_val, helping_val)] (lines 22–23). *)

val instance : t -> int -> instance
(** The state for a register instance (created with [bot] content on first
    access).  Instances are non-negative and index a dense table, so keep
    them small and consecutive. *)

val copy : t -> t
(** An independent server with the same instances and content. *)

val instances : t -> (int * instance) list
(** The instances created so far, ascending. *)

val reset : t -> unit
(** Crash-recovery wipe: every instance back to pristine [bot] content —
    what a server that lost its volatile state rejoins with. *)

val corrupt : t -> Sim.Rng.t -> unit
(** Transient fault: overwrite every instance's variables with arbitrary
    cells (and an arbitrary choice of [⊥]/non-[⊥] helping value). *)
