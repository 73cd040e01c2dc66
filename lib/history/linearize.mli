(** Brute-force linearizability for small register histories.

    Searches for a total order of the operations that (a) respects real
    time (an operation that responded before another was invoked comes
    first) and (b) makes every read return the value of the latest
    preceding write (or [Bot] if none precedes it).

    Exponential in the worst case — intended for cross-validating the
    polynomial oracles ({!Atomicity.Sw}, {!Atomicity.Mw}) on histories of
    up to a few dozen operations, not for production checking.  The DFS
    extends the order only with currently-minimal operations (no pending
    op that real-time-precedes them), which prunes aggressively on the
    mostly-sequential histories the simulator produces. *)

val check : History.t -> bool option
(** [check h] is [Some true] if a linearization exists, [Some false] if
    provably none does, or [None] if the search exceeded 2,000,000 DFS
    steps.  Reads linearized before any write must return [Bot]. *)
