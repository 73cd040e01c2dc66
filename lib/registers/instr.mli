(** Operation spans: typed [Op_invoke]/[Op_return] event pairs plus a
    latency histogram per (register class, operation).

    A client resolves one {!probe} per operation kind at construction
    time — the histogram lookup happens once, so the per-operation cost
    is one id bump, two [Vtime] reads and a histogram observe (plus
    event emission when a sink is attached).  Composite registers (SWMR
    over SWSR, MWMR over SWMR, KV over MWMR) each carry their own probes
    under distinct [reg] labels, so a single top-level operation shows
    up once per layer it crosses.

    Spans open only through {!Collect.run}: an automaton's [Enter] step
    calls {!start} under the innermost open span, and the matching
    [Leave] calls {!finish}. *)

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
(** Emit [Op_invoke] and open the span: a child of [parent], or the root
    of a fresh causal tree without one. *)

val context : span -> Obs.Trace_ctx.span
(** The span's causal context, which the operation's broadcast rounds
    and nested spans hang under. *)

val finish : ok:bool -> probe -> span -> unit
(** Record the latency and emit [Op_return]. *)
