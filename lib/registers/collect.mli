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

type attempt = {
  answers : Messages.to_client array;
      (** by server slot: the acknowledgment counted, or {!no_answer} *)
  acks : int;  (** distinct servers that answered in time *)
  expired : bool;  (** the policy deadline fired *)
}

val attempt_once :
  net:Net.t ->
  port:Net.client_port ->
  round:int ->
  attempt:int ->
  wanted:acks ->
  attempt
(** One collection pass for broadcast [round] ([attempt] is 0-based; it
    selects the target count as described above), filing the first
    acknowledgment of the [wanted] kind from each server. *)

type collected = {
  answers : Messages.to_client array;  (** from the best attempt *)
  acks : int;
  attempts : int;  (** attempts spent (1 = first try sufficed) *)
  complete : bool;  (** the full [Params.ack_wait] quota answered *)
}

val retrying :
  ?span:Obs.Trace_ctx.span ->
  net:Net.t ->
  port:Net.client_port ->
  inst:int ->
  body:Messages.to_server ->
  wanted:acks ->
  unit ->
  collected
(** One logical collect: ss-broadcast [body], gather, and retry (fresh
    broadcast each time, after the policy's backoff plus per-port jitter;
    each retry bumps ["collect.retries"] and emits a ["retry.c<id>.a<k>"]
    mark) until the full quota answers or the policy's attempt budget runs
    out; returns the best attempt.  Each re-broadcast opens its own child
    span of [span], so retry rounds are visible in traces. *)

val judge : net:Net.t -> port:Net.client_port -> collected -> unit Outcome.t
(** Classify a collect against {!Params.write_ok_threshold} (full service)
    and {!Params.read_quorum} (degraded vs timed out), naming the port's
    current suspects in the reason. *)

(** {2 The operation skeleton} *)

type endpoint = private {
  net : Net.t;
  port : Net.client_port;
  inst : int;
  probe : Instr.probe;
  mutable iterations : int;  (** inquiry rounds run by {!read_loop} *)
  mutable help_returns : int;  (** reads returned through line 15 *)
}
(** One client endpoint of one register instance. *)

val endpoint :
  net:Net.t ->
  client_id:int ->
  inst:int ->
  reg:string ->
  Obs.Event.op_kind ->
  endpoint
(** The endpoint's port is [Net.add_client net ~id:client_id]. *)

val op :
  ?parent:Obs.Trace_ctx.span ->
  endpoint ->
  (Obs.Trace_ctx.span -> 'a Outcome.t) ->
  'a Outcome.t
(** Run one operation inside a fresh span of the endpoint's probe (a
    child of [parent] when given; see {!Instr.run}) and count it with
    {!Instr.count_op}. *)

val write_round :
  span:Obs.Trace_ctx.span -> endpoint -> Messages.cell -> unit Outcome.t
(** Lines 02–06: {!retrying} WRITE([cell]), broadcast NEW_HELP_VAL([cell])
    unless a {!Params.help_refresh_threshold} of helping values agree, and
    {!judge} the collect. *)

val read_loop :
  span:Obs.Trace_ctx.span ->
  ?max_iterations:int ->
  endpoint ->
  on_cell:(Messages.cell -> 'a) ->
  on_help:(Messages.cell -> 'a) ->
  'a Outcome.t
(** Lines 07–18: READ(true) then READ(false) rounds until a
    {!Params.read_quorum} of [last_val]s agrees (line 13: return
    [on_cell c]) or of helping values (line 15: return [on_help c]).  Gives
    up after [max_iterations] rounds (default unlimited), or once the
    policy's attempt budget of expired rounds is spent, with [Degraded]
    (a read quorum answered some round) or [Timed_out]. *)
