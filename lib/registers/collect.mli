(** Waiting for acknowledgments from distinct servers (the [wait]
    statements of lines 02 and 11), and the one operation skeleton every
    SWSR register client runs.

    Only acknowledgments tagged with the round of the broadcast being
    answered count (see {!Net} on the round tag); at most one
    acknowledgment per server counts, per the paper's "from (n-t)
    {e different} servers".

    {2 Attempts}

    An {e attempt} collects one broadcast's acknowledgments.  How its wait
    ends depends on the deployment's {!Params.retry} policy and mode:
    - with a policy [deadline], at that deadline, which counts as
      [expired]; the attempt then feeds the port's {!Health} tracker with
      who answered;
    - otherwise, in sync mode, at the round-trip bound (lines 02.M /
      11.M of Fig. 5) — the normal end of a synchronous round, not an
      expiry;
    - otherwise it blocks until [Params.ack_wait] servers answered, as
      the asynchronous paper client does.

    The first attempt waits for the paper's full quota; retries stop
    counting on suspected slots (floored at the read quorum).  Under
    {!Params.paper_wait} no slot is ever suspected, so every attempt waits
    for the full quota. *)

type acks =
  | Write_acks  (** a WRITE round: only [Ack_write] bodies count *)
  | Read_acks  (** a READ round: only [Ack_read] bodies count *)
(** The acknowledgment kind a round files; bodies of the other kind from a
    server are ignored (a Byzantine server may send anything). *)

val no_answer : Messages.to_client
(** What the slot of a server with no counted acknowledgment holds,
    compared physically.  It is an [Ack_write None], so the
    {!Quorum.find_ack_cell} and {!Quorum.find_ack_help} counts pass over
    it. *)

type intake = private {
  answers : Messages.to_client array;
  round : int;
  wanted : acks;
  stop_at : int;
  mutable acks : int;
}
(** One collection pass for broadcast [round], filled in place by
    {!consider} until [stop_at] servers answered. *)

val intake :
  Params.t -> health:Health.t -> round:int -> attempt:int -> wanted:acks -> intake
(** [attempt] (0-based) and [health] select the target as described above. *)

val consider : intake -> Messages.client_envelope -> bool
(** File the first acknowledgment of the wanted kind and round from each
    server; [true] once the target is reached. *)

val copy_intake : intake -> intake

type attempt = {
  answers : Messages.to_client array;
      (** by server slot: the acknowledgment counted, or {!no_answer} *)
  acks : int;  (** distinct servers that answered in time *)
  expired : bool;  (** the policy deadline fired *)
}

val attempt_of : intake -> expired:bool -> attempt

val skipped : attempt
(** What a round that collects nothing resumes with. *)

val attempt_once :
  net:Net.t ->
  port:Net.client_port ->
  round:int ->
  attempt:int ->
  wanted:acks ->
  attempt
(** One collection pass for broadcast [round] over the port's mailbox,
    blocking the calling fiber until it ends. *)

(** {2 Operations as round automata}

    An operation runs until it must wait for a round; the {!step} it
    returns names the broadcast and a continuation, resumed with that
    round's acknowledgments and the client state ['c].  Continuations
    capture no mutable state: whatever an operation changes lives in the
    client state, so a suspended operation is copied with it.  {!run}
    drives an automaton in a simulator fiber; the model checker drives it
    over its own explicit state. *)

type tally = { mutable iterations : int; mutable help_returns : int }
(** A reader's counters: inquiry rounds, and reads returned by line 15. *)

val fresh_tally : unit -> tally

val copy_tally : tally -> tally

type site = { params : Params.t; inst : int; probe : Instr.probe option }
(** Where an operation runs; without a probe it opens no spans. *)

val probe :
  ?engine:Sim.Engine.t -> client:int -> reg:string -> Obs.Event.op_kind ->
  Instr.probe option
(** {!Instr.probe} when an [engine] is given. *)

val site :
  ?engine:Sim.Engine.t -> params:Params.t -> client:int -> inst:int ->
  reg:string -> Obs.Event.op_kind -> site

type ('c, 'r) step =
  | Return : 'r -> ('c, 'r) step
  | Round : {
      inst : int;
      body : Messages.to_server;
      wanted : acks option;  (** [None]: nothing to collect (NEW_HELP_VAL) *)
      attempt : int;  (** 0-based, see {!attempt_once} *)
      backoff : int;  (** the retry to back off for first; 0 for none *)
      k : attempt -> 'c -> ('c, 'r) step;
    }
      -> ('c, 'r) step  (** one ss-broadcast and its collection *)
  | Enter : { probe : Instr.probe; leaf : bool; next : 'c -> ('c, 'r) step }
      -> ('c, 'r) step  (** an operation span opens *)
  | Leave : { outcome : 'x Outcome.t; next : 'x Outcome.t -> 'c -> ('c, 'r) step }
      -> ('c, 'r) step  (** the innermost span closes *)

type ('c, 'a, 'r) op = ('a -> 'c -> ('c, 'r) step) -> 'c -> ('c, 'r) step
(** An operation producing ['a]: given its continuation and the client
    state, it runs to its first step. *)

val round : ?wanted:acks -> inst:int -> Messages.to_server -> ('c, attempt, 'r) op
(** One first-attempt round, collecting nothing without [wanted]. *)

val scoped :
  ?leaf:bool -> Instr.probe option -> ('c, 'a Outcome.t, 'r) op ->
  ('c, 'a Outcome.t, 'r) op
(** The operation inside a span of the probe, if any.  A [leaf] span
    (default [false]) is one register operation, which {!run} counts. *)

val write_round : site -> Messages.cell -> ('c, unit Outcome.t, 'r) op
(** Lines 02–06: WRITE([cell]) re-broadcast (after the policy's backoff
    plus per-port jitter; each retry bumps ["collect.retries"] and emits a
    ["retry.c<id>.a<k>"] mark) until the full quota answers or the
    policy's attempt budget runs out, then NEW_HELP_VAL([cell]) unless a
    {!Params.help_refresh_threshold} of the best attempt's helping values
    agree.  The outcome is [Ok] when {!Params.write_ok_threshold} servers
    answered, else [Degraded] or [Timed_out] by {!Params.read_quorum}. *)

val read_loop :
  ?max_iterations:int ->
  site ->
  tally:('c -> tally) ->
  on_cell:('c -> Messages.cell -> 'a) ->
  on_help:('c -> Messages.cell -> 'a) ->
  ('c, 'a Outcome.t, 'r) op
(** Lines 07–18: READ(true) then READ(false) rounds until a
    {!Params.read_quorum} of [last_val]s agrees (line 13: return
    [on_cell c]) or of helping values (line 15: return [on_help c]).  Gives
    up after [max_iterations] rounds (default unlimited), or once the
    policy's attempt budget of expired rounds is spent, with [Degraded]
    (a read quorum answered some round) or [Timed_out]. *)

val run : net:Net.t -> port:Net.client_port -> 'c -> ('c, 'a, 'a) op -> 'a
(** Drive an automaton in the calling fiber: a round is one
    {!Net.ss_broadcast} after its backoff, then one {!attempt_once}; a
    scope is one {!Instr} span under the enclosing one.  A top-level
    scope starts a fresh causal tree, so one call is one tree however
    many layers its scopes nest.  A failed leaf outcome names the port's
    current suspects. *)

(** {2 One SWSR client endpoint} *)

type endpoint = private { net : Net.t; port : Net.client_port; site : site }

val endpoint :
  net:Net.t -> client_id:int -> inst:int -> reg:string -> Obs.Event.op_kind ->
  endpoint
(** The endpoint's port is [Net.add_client net ~id:client_id]. *)
