(** Operation spans: typed [Op_invoke]/[Op_return] event pairs plus a
    latency histogram per (register class, operation).

    A client resolves one {!probe} per operation kind at construction
    time — the histogram lookup happens once, so the per-operation cost
    is one id bump, two [Vtime] reads and a histogram observe (plus
    event emission when a sink is attached).  Composite registers (SWMR
    over SWSR, MWMR over SWMR, KV over MWMR) each carry their own probes
    under distinct [reg] labels, so a single top-level operation shows
    up once per layer it crosses. *)

type probe

val probe :
  engine:Sim.Engine.t -> client:int -> reg:string -> Obs.Event.op_kind -> probe
(** [reg] names the register class (["swsr_regular"], ["swsr_atomic"],
    ["swmr"], ["swmr_wb"], ["mwmr"], ["kv"]); [client] the invoking
    client, which events name as process ["c<client>"].  The latency
    histogram is ["op.<reg>.<read|write>"]. *)

val count_op : probe -> unit
(** Bump the ["write.ops"] / ["read.ops"] counter of the probe's
    operation kind.  The counter is resolved at the first call, so a
    probe that never counts leaves no counter in the registry. *)

type span
(** One operation in progress. *)

val start : ?parent:Obs.Trace_ctx.span -> probe -> span
(** {!run}'s first half: emit [Op_invoke], open the span. *)

val context : span -> Obs.Trace_ctx.span

val finish : ok:bool -> probe -> span -> unit
(** {!run}'s second half: record the latency, emit [Op_return]. *)

val run :
  ?parent:Obs.Trace_ctx.span ->
  probe ->
  (Obs.Trace_ctx.span -> 'a Outcome.t) ->
  'a Outcome.t
(** Run one operation inside a span: emit [Op_invoke], pass the body the
    span's causal context (for [Net.ss_broadcast ?span] and for the
    sub-operations of composite registers), then record the latency and
    emit [Op_return] with [ok = Outcome.is_ok].  Without [parent] the
    operation starts a fresh causal tree (the normal top-level case);
    composite registers pass the enclosing layer's context so one
    user-level operation stays a single tree across layers. *)
