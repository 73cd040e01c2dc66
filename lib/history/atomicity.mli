(** Atomicity checkers: regularity plus the absence of new/old inversions
    (§2.2), for single-writer and multi-writer histories.

    {!Sw} handles SWSR/SWMR histories: the single writer makes writes
    totally ordered by invocation time; each read is mapped to the index of
    the write whose (distinct) value it returned, and atomicity amounts to
    regularity plus monotonicity of those indices along the real-time order
    of reads — precisely "no two reads return new/old inverted values".

    {!Mw} handles MWMR histories using the (epoch, seq, writer) timestamps
    recorded with each operation: writes must be totally ordered by
    timestamp consistently with real time (Lemma 16), and reads must be
    monotone and sandwiched between the writes they follow and overlap. *)

type inversion = { earlier_read : History.op; later_read : History.op }

module Sw : sig
  type report = {
    regularity : Regularity.report;
    inversions : inversion list;
    malformed : string list;
        (** history-discipline problems: overlapping writes from the
            single writer, duplicate written values *)
  }

  val check : ?cutoff:Sim.Vtime.t -> History.t -> report

  val check_index :
    ?cutoff:Sim.Vtime.t -> Regularity.index -> History.op list -> report
  (** [check_index ix reads] is {!check} of the history made of the
      writes of [ix] and of [reads], given in history order. *)

  val is_clean : report -> bool

  val pp : Format.formatter -> report -> unit
end

module Mw : sig
  type violation = {
    kind : string;
    detail : string;
  }

  type report = {
    writes_checked : int;
    reads_checked : int;
    violations : violation list;
  }

  val check :
    ?cutoff:Sim.Vtime.t ->
    tie:[ `Min_index | `Max_index ] ->
    History.t ->
    report
  (** [tie] must match the register's configured line-15 tie-break: with
      [`Min_index] the smaller writer id wins among equal (epoch, seq)
      timestamps, with [`Max_index] the larger (Definition 1's [j > i]). *)

  val is_clean : report -> bool

  val pp : Format.formatter -> report -> unit
end
