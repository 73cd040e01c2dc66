(** Workload generators, and the one place a register family's clients
    and workload are built ({!deploy}).

    Jobs are plain functions meant to be spawned as fibers; they drive a
    register's operations with configurable inter-operation gaps, record
    everything in the scenario history and count how each operation
    finished into a {!tally}.  Written values are made pairwise distinct
    ({!value_for}) so the oracles can map reads back to writes. *)

type gap = { lo : int; hi : int }
(** Uniform inter-operation think time, in ticks. [{lo = 0; hi = 0}] is a
    back-to-back workload. *)

val gap : int -> int -> gap

type tally = {
  mutable writes : Registers.Outcome.tally;
  mutable reads : Registers.Outcome.tally;
}
(** How the jobs' operations finished; the caller reads it after the
    run. *)

val tally : unit -> tally

val value_for : writer:int -> int -> Registers.Value.t
(** [value_for ~writer k] is a value unique across writers and operation
    indices (namespaced integers). *)

val writer_job :
  Scenario.t ->
  ?proc:string ->
  ?writer_id:int ->
  tally:tally ->
  write:(Registers.Value.t -> unit Registers.Outcome.t) ->
  count:int ->
  gap:gap ->
  unit ->
  unit
(** Perform [count] writes of distinct values with sampled gaps. *)

val reader_job :
  Scenario.t ->
  ?proc:string ->
  tally:tally ->
  read:(unit -> Registers.Value.t Registers.Outcome.t) ->
  count:int ->
  gap:gap ->
  unit ->
  unit

val mwmr_job :
  Scenario.t ->
  proc:string ->
  process:Registers.Mwmr.process ->
  tally:tally ->
  ops:int ->
  write_ratio:float ->
  gap:gap ->
  ?max_iterations:int ->
  unit ->
  unit
(** A process mixing mwmr reads and writes ([write_ratio] of the ops are
    writes), recording MWMR timestamps for the {!Oracles.Atomicity.Mw}
    checker. *)

val regular_pair :
  Scenario.t -> Registers.Swsr_regular.writer * Registers.Swsr_regular.reader
(** A SWSR regular register's writer (client 100) and reader (client
    101). *)

val atomic_pair :
  Scenario.t -> Registers.Swsr_atomic.writer * Registers.Swsr_atomic.reader

val deploy :
  Scenario.t ->
  Oracles.Stabilization.family ->
  writes:int ->
  reads:int ->
  read_budget:int ->
  gap:gap ->
  tally:tally ->
  (string * (unit -> unit)) list
(** A family's clients, their faults named, and their jobs as
    [(fiber name, body)] pairs in spawn order: for [Regular] and [Atomic]
    a ["writer"] and a ["reader"] of a client pair, for [Mwmr] processes
    ["p0"] and ["p1"] (clients 300, 301) sharing the [writes + reads]
    operations.  Reads get [read_budget] inquiry iterations. *)
