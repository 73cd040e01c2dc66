(** The regular-register condition (§2.2), checked per read.

    After the cutoff (the experiment's stand-in for [tau_stab]), every read
    must return either the value of the last write that completed before
    the read started, or the value of a write concurrent with the read.
    Reads invoked before the cutoff are ignored (they are allowed to return
    arbitrary values); reads that ran out of budget count as liveness
    failures, reported separately.

    Ties: when several writes complete at the same latest instant before a
    read starts, only the first of them in history order counts as the
    last write, so a read returning another one (and not concurrent with
    it) is a violation.  That is the single-writer reading: one writer's
    writes run one after another, so they tie only if one takes no time.
    Every caller checks a single-writer history (the regular family's,
    and each key of a shard, written by one router fiber).  Multi-writer
    histories must not be checked with this module: tied writes by two
    writers would give false violations. *)

type violation = {
  read : History.op;
  expected : Registers.Value.t list;  (** the admissible values *)
}

type report = {
  reads_checked : int;
  reads_skipped : int;  (** invoked before the cutoff *)
  liveness_failures : int;  (** reads that exhausted their budget *)
  violations : violation list;
}

val check :
  ?cutoff:Sim.Vtime.t -> ?initial_ok:bool -> History.t -> report
(** [check ~cutoff h] verifies every read of [h] invoked at or after
    [cutoff] (default: check all).  [initial_ok] (default [false]) admits
    any value for reads with no preceding or concurrent write at all, and
    admits [⊥] for reads invoked before any write completed (such a read
    may take effect before the concurrent first write) — useful for
    histories that legitimately start unwritten. *)

(** {2 Checking with the writes indexed}

    {!check} sorts the history once and indexes its writes once, so that
    a read costs a binary search plus the writes that completed or ran
    concurrently with it, not a pass over every write.  Checkers that cut
    one history many ways ({!Stabilization}) build the index once and
    check each slice of reads against it. *)

type index
(** The writes of a history, indexed. *)

val index : History.op list -> index
(** [index writes] indexes [writes], given in history order (as
    {!History.writes} lists them). *)

val writes : index -> History.op list
(** The writes [index] was built from. *)

val check_index :
  ?cutoff:Sim.Vtime.t -> ?initial_ok:bool -> index -> History.op list -> report
(** [check_index ix reads] is {!check} of the history made of the writes
    of [ix] and of [reads], given in history order. *)

val is_clean : report -> bool
(** No violations and no liveness failures among checked reads. *)

val pp : Format.formatter -> report -> unit
