(** SWMR atomic register with reader write-back — the classical
    strengthening ([13, 15]) of the §5.1 composition, going beyond the
    paper.

    The §5.1 composition (module {!Swmr}) is atomic {e per reader} but,
    because the writer updates the per-reader copies sequentially, two
    {e different} readers can exhibit a cross-reader new/old inversion
    (constructed deterministically in [Harness.Swmr_inversion];
    experiment E13).  The classical fix makes readers inform each other:
    an exchange register EX[i][j] per ordered reader pair, written by
    reader [i] and read by reader [j].  A read returns the
    [>_cd]-maximal (wsn, value) pair among its own copy and its incoming
    exchange registers, and writes that pair back to all its outgoing
    ones — once a reader returns a value, no later read at any reader
    returns an older one.

    Costs: per swmr_read, [1 + (m-1)] SWSR reads and [(m-1)] SWSR writes;
    instance space [m + m*m] per register.  The writer keeps all copies'
    sequence counters in lockstep (a shared counter re-imposed on every
    copy before each write) so pairs stay comparable across copies even
    after a transient fault desynchronizes them. *)

type writer

type reader

val writer :
  net:Net.t ->
  client_id:int ->
  base_inst:int ->
  readers:int ->
  ?modulus:int ->
  unit ->
  writer

val reader :
  net:Net.t ->
  client_id:int ->
  base_inst:int ->
  reader_index:int ->
  ?readers:int ->
  ?modulus:int ->
  unit ->
  reader
(** [readers] (default 2) must match the writer's. *)

val write : writer -> Value.t -> unit Outcome.t
(** Write the value to every reader's copy, all under one shared sequence
    number: the {!Swmr.write_op} automaton under a ["swmr_wb"] span, after
    the shared number is re-imposed on every copy.  Must run inside a
    fiber.  The outcome is the worst over the per-reader copies. *)

val read : ?max_iterations:int -> reader -> Value.t Outcome.t
(** Read with write-back, one {!Collect.run} of an automaton under a
    ["swmr_wb"] span: the own copy's {!Swsr_atomic.read_op}, then each
    incoming exchange register's, then a {!Swsr_atomic.write_op} to each
    outgoing one.  Must run inside a fiber.  The own-copy read's failure
    propagates; incoming exchange reads stay best-effort (absorbed); a
    degraded write-back degrades the read (other readers may miss the
    freshness it relied on). *)

val exchange_writes : reader -> int
(** Total write-back (exchange-register) writes performed by this reader
    (cost accounting for E13). *)
