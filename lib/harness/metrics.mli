(** History statistics for the experiment tables: latencies and read
    counts.  Latency summaries are {!Obs.Metrics.summary}; the
    post-fault verdict is {!Oracles.Stabilization}. *)

val latencies : kind:Oracles.History.kind -> Oracles.History.t -> float list
(** Operation latencies (ticks) of the given kind, successful ops only. *)

val ok_reads : Oracles.History.t -> int

val failed_reads : Oracles.History.t -> int
