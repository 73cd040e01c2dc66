(** Workload generators.

    Jobs are plain functions meant to be spawned as fibers; they drive a
    register's operations with configurable inter-operation gaps and record
    everything in the scenario history.  Written values are made pairwise
    distinct ({!value_for}) so the oracles can map reads back to writes. *)

type gap = { lo : int; hi : int }
(** Uniform inter-operation think time, in ticks. [{lo = 0; hi = 0}] is a
    back-to-back workload. *)

val gap : int -> int -> gap

val value_for : writer:int -> int -> Registers.Value.t
(** [value_for ~writer k] is a value unique across writers and operation
    indices (namespaced integers). *)

val writer_job :
  Scenario.t ->
  ?proc:string ->
  ?writer_id:int ->
  write:(Registers.Value.t -> unit Registers.Outcome.t) ->
  count:int ->
  gap:gap ->
  unit ->
  unit
(** Perform [count] writes of distinct values with sampled gaps. *)

val reader_job :
  Scenario.t ->
  ?proc:string ->
  read:(unit -> Registers.Value.t Registers.Outcome.t) ->
  count:int ->
  gap:gap ->
  unit ->
  unit

val mwmr_job :
  Scenario.t ->
  proc:string ->
  process:Registers.Mwmr.process ->
  ops:int ->
  write_ratio:float ->
  gap:gap ->
  ?max_iterations:int ->
  unit ->
  unit
(** A process mixing mwmr reads and writes ([write_ratio] of the ops are
    writes), recording MWMR timestamps for the {!Oracles.Atomicity.Mw}
    checker. *)
