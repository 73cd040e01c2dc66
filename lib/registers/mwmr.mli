(** Stabilizing Byzantine-tolerant MWMR atomic register — Figure 4.

    Every one of the [m] processes is both a reader and a writer; process
    [i] owns the SWMR register [REG\[i\]] and reads all of them.  Values are
    timestamped with a bounded epoch ({!Epoch}) and a sequence number
    bounded by [seq_bound]; when the sequence space of the greatest epoch is
    exhausted — or transient faults left the epochs without a maximum — the
    operating process opens a fresh epoch with [next_epoch].

    Register instances [base_inst + j*m + i] carry [REG\[j\]]'s copy for
    reader [i]. *)

type config = {
  m : int;  (** number of processes *)
  base_inst : int;
  modulus : int;  (** bound on the SWSR-level write sequence numbers *)
  seq_bound : int;  (** the paper's [2^64] bound on timestamp seq numbers *)
  tie : [ `Min_index | `Max_index ];
      (** Line 15 tie-break among same-timestamp values.  The paper's code
          picks the {e minimal} index while its Definition 1 orders writes
          by {e larger} process id; both are sound (any fixed tie-break is),
          and the checker follows whichever is configured.  Default
          [`Min_index] (paper-literal). *)
  view_budget : int;
      (** Inquiry-iteration budget for each underlying swmr_read when
          collecting the view of REG\[1..m\] (lines 01/09).  The paper's
          unbounded read terminates only once each register's writer has
          written after the last transient fault; because every MWMR
          operation starts by reading {e all} registers, a fully scrambled
          configuration would deadlock circularly.  A sub-read that
          exhausts this budget is absorbed as a genesis-stamped [Bot]
          triple, letting the operation proceed and (through its write)
          re-establish exactly the state the paper's assumption provides.
          Default 64. *)
}

val default_config : m:int -> config
(** [base_inst = 0], [modulus = Seqnum.default_modulus],
    [seq_bound = 2^61], [tie = `Min_index], [view_budget = 64]. *)

val epoch_k : config -> int
(** The labeling-scheme parameter [k = max m 2] used by this register. *)

type process

val process : net:Net.t -> cfg:config -> id:int -> client_id:int -> process
(** Endpoint for process [id] (0-based, [< cfg.m]). *)

val write : process -> Value.t -> unit Outcome.t
(** mwmr_write(v): lines 01–08.  Must run inside a fiber.  The outcome is
    the worst of the line-07 SWMR write and (when waits have a deadline)
    the line-01 view collection. *)

val read : ?max_iterations:int -> process -> Value.t Outcome.t
(** mwmr_read(): lines 09–16.  Must run inside a fiber. *)

val read_timestamped :
  ?max_iterations:int -> process -> (Value.t * Epoch.t * int * int) Outcome.t
(** Like {!read} but exposing the returned value's full timestamp
    [(epoch, seq, writer-index)] for the atomicity checker. *)

val id : process -> int

val last_write_timestamp : process -> (Epoch.t * int) option
(** Timestamp chosen by this process's most recent {!write} (for the
    checker; [None] before the first write). *)

val epochs_opened : process -> int
(** How many times this process executed the next_epoch branch. *)

val take_restamps : process -> (Value.t * Epoch.t * int) list
(** Line-11 internal writes performed by this process's reads since the
    last call (value restamped, fresh epoch, seq = 0), oldest first, and
    clear the log.  Histories fed to the {!Oracles.Atomicity.Mw} checker
    must include these as writes: they modify the register. *)

(** {2 As round automata} *)

type state = {
  own : Swsr_atomic.wstate array;  (** [REG\[id\]]'s copy for each reader *)
  views : Swsr_atomic.rstate array;  (** this reader's copy of each [REG\[j\]] *)
  mutable last_ts : (Epoch.t * int) option;
  mutable epochs_opened : int;
  mutable restamps_rev : (Value.t * Epoch.t * int) list;
      (** what {!take_restamps} drains, newest first *)
}

val fresh_state : config -> state

val copy_state : state -> state

type layout
(** One process's id, configuration, register sites and probes. *)

val layout :
  ?engine:Sim.Engine.t -> params:Params.t -> cfg:config -> id:int ->
  client_id:int -> unit -> layout
(** Probes only with an [engine]. *)

val write_op :
  layout -> ('c -> state) -> Value.t -> ('c, unit Outcome.t, 'r) Collect.op
(** {!write}; the getter finds the process's state in the client state. *)

val read_op :
  ?max_iterations:int -> layout -> ('c -> state) ->
  ('c, (Value.t * Epoch.t * int * int) Outcome.t, 'r) Collect.op
(** {!read_timestamped}. *)
