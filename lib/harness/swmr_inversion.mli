(** A deterministic cross-reader new/old inversion against the §5.1 SWMR
    composition — and its elimination by the reader write-back extension.

    The §5.1 text composes one SWSR atomic register per reader and writes
    each value to all copies, claiming the result is an SWMR (atomic)
    register.  Because the copies are written {e sequentially}, a reader of
    an early copy can return the new value while a strictly later reader of
    a late copy still returns the old one — per-reader atomicity holds but
    cross-reader atomicity does not.  {!run} builds the schedule exhibiting
    this ([`Paper]) and shows {!Registers.Swmr_wb}'s classical reader
    write-back removing it ([`Write_back]).  The schedule is a
    {!Scenario} whose [link_delay] scripts the writer's (client 100)
    request links by their endpoints.  Experiment E13. *)

type outcome = {
  read_r0 : Registers.Value.t option;
  read_r1 : Registers.Value.t option;
  inversion : bool;
}

val run : [ `Paper | `Write_back ] -> outcome
