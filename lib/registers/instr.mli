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

type span

val probe :
  engine:Sim.Engine.t -> client:int -> reg:string -> Obs.Event.op_kind -> probe
(** [reg] names the register class (["swsr_regular"], ["swsr_atomic"],
    ["swmr"], ["swmr_wb"], ["mwmr"], ["kv"]); [client] the invoking
    client, which events name as process ["c<client>"].  The latency
    histogram is ["op.<reg>.<read|write>"]. *)

val start : ?parent:Obs.Trace_ctx.span -> probe -> span
(** Open an operation span.  Without [parent] the operation starts a
    fresh causal tree (the normal top-level case); composite registers
    pass the enclosing layer's context so one user-level operation stays
    a single tree across layers. *)

val ctx : span -> Obs.Trace_ctx.span
(** The causal context of an open operation; pass it to
    [Net.ss_broadcast ?span] so the round trips parent under it. *)

val finish : ?ok:bool -> probe -> span -> unit
(** [ok] defaults to [true]; pass [false] for operations that abort
    (e.g. an MWMR write losing its epoch race). *)
