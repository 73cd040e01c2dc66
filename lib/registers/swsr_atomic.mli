(** Practically stabilizing Byzantine-tolerant SWSR {e atomic} register —
    Figure 3 (asynchronous, [t < n/8]; the same code with synchronous
    parameters gives the [t < n/3] variant noted at the end of §4).

    Extends the regular register with a bounded write sequence number [wsn]
    compared under the clockwise order [>_cd] ({!Seqnum}), letting the
    reader suppress new/old inversions as long as fewer than
    [system-life-span] writes separate two reads.  The writer's [wsn] and
    the reader's [(pwsn, pv)] bookkeeping survive between operations and are
    exactly the process-local state transient faults may corrupt — register
    them with a {!Sim.Fault} plan via {!corrupt_writer} / {!corrupt_reader}. *)

type wstate = { mutable wsn : Seqnum.t }
(** The writer's protocol state. *)

type rstate = {
  mutable pwsn : Seqnum.t;
  mutable pv : Value.t;
  mutable preventions : int;
  tally : Collect.tally;
}
(** The reader's protocol state. *)

val fresh_wstate : unit -> wstate

val fresh_rstate : unit -> rstate

val copy_wstate : wstate -> wstate

val copy_rstate : rstate -> rstate

type writer

type reader

val writer :
  net:Net.t -> client_id:int -> inst:int -> ?modulus:int -> unit -> writer
(** [modulus] bounds [wsn] (default {!Seqnum.default_modulus}; must be odd,
    tiny values are valid and exercise wrap-around). *)

val reader :
  net:Net.t ->
  client_id:int ->
  inst:int ->
  ?modulus:int ->
  ?sanity_check:bool ->
  unit ->
  reader
(** [sanity_check] (default [true]) enables the lines N2–N7 preliminary
    phase that validates the local [(pwsn, pv)] pair against a quorum of
    helping values before each read.  Disabling it is an ablation knob
    (experiment E12): without it, a reader whose bookkeeping was corrupted
    {e above} the writer's counter keeps returning its stale [pv] until the
    bounded counter wraps past the corruption. *)

val write : writer -> Value.t -> unit Outcome.t
(** prac_at_write(v): lines N1, 01M, 02–06, with a typed service-level
    outcome (see {!Swsr_regular.write}).  Must run inside a fiber. *)

val read : ?max_iterations:int -> reader -> Value.t Outcome.t
(** prac_at_read(): lines N2–N7, 07–18 with the 13M/15M modifications,
    with a typed service-level outcome (see {!Swsr_regular.read}).  Must
    run inside a fiber.  The sanity phase's collection attempt waits like
    any other and is skipped when it expires — it is advisory. *)

val write_op :
  Collect.site -> modulus:int -> ('c -> wstate) -> Value.t ->
  ('c, unit Outcome.t, 'r) Collect.op
(** {!write} as a round automaton; the getter finds the writer's state in
    the client state each time the operation resumes. *)

val read_op :
  ?max_iterations:int -> Collect.site -> modulus:int -> sanity_check:bool ->
  ('c -> rstate) -> ('c, Value.t Outcome.t, 'r) Collect.op

val wsn : writer -> Seqnum.t
(** Current write sequence number (inspection). *)

val pwsn : reader -> Seqnum.t

val pv : reader -> Value.t

val corrupt_writer : writer -> Sim.Rng.t -> unit
(** Transient fault on the writer's persistent state ([wsn]). *)

val corrupt_reader : reader -> Sim.Rng.t -> unit
(** Transient fault on the reader's persistent state ([pwsn], [pv]). *)

val corrupt_reader_to : reader -> pwsn:Seqnum.t -> pv:Value.t -> unit
(** Targeted transient fault: set the reader's bookkeeping to a chosen
    (worst-case) state — e.g. a [pwsn] clockwise-ahead of the writer's
    counter, the configuration the lines N2–N7 sanity phase repairs. *)

val reader_iterations : reader -> int

val help_returns : reader -> int

val writer_port : writer -> Net.client_port
(** The writer's communication port (fault-injection target). *)

val reader_port : reader -> Net.client_port

val inversion_preventions : reader -> int
(** How many reads returned the locally stored [pv] because the quorum's
    sequence number was not newer (line 13M3) — each is a suppressed
    would-be new/old inversion or a harmless re-read of the same value. *)
