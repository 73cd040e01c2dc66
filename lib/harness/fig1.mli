(** Deterministic construction of the paper's Figure 1 — the new/old
    inversion a regular register admits and the practically atomic
    register eliminates.

    A write of 1 (after a completed write of 0) is kept pending across two
    back-to-back reads by scripted link delays; the acknowledgment sets of
    the two reads are steered so the first sees the new value's quorum and
    the second the old value's.  Running the schedule against the Fig. 2
    register reproduces the inversion; against the Fig. 3 register, the
    [>_cd]-guarded bookkeeping suppresses it (line 13M3).  The schedule
    is a {!Scenario} whose [link_delay] scripts the writer's (client 100)
    request links and the reader's (client 101) acknowledgment links by
    their endpoints. *)

type outcome = {
  read1 : Registers.Value.t option;
  read2 : Registers.Value.t option;
  write1_pending_during_reads : bool;
      (** sanity: the schedule really kept write(1) concurrent with both
          reads *)
  inversion : bool;  (** read1 = 1 and read2 = 0 *)
  metrics : Obs.Metrics.t;  (** the run's metrics, for run reports *)
}

val run : ?instrument:(Sim.Engine.t -> unit) -> [ `Regular | `Atomic ] -> outcome
(** [instrument] is called on the scenario's engine before any client
    exists — the hook for attaching event sinks. *)
