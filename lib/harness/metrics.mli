(** History statistics for the experiment tables: latencies, read
    counts and the empirical stabilization point.  Latency summaries
    are {!Obs.Metrics.summary}. *)

val latencies : kind:Oracles.History.kind -> Oracles.History.t -> float list
(** Operation latencies (ticks) of the given kind, successful ops only. *)

val ok_reads : Oracles.History.t -> int

val failed_reads : Oracles.History.t -> int

val stabilization_read_index :
  valid:(Oracles.History.op -> bool) -> Oracles.History.t -> int option
(** Index (0-based, in invocation order) of the first read from which all
    subsequent reads satisfy [valid] — the empirically observed
    stabilization point; [None] if no suffix is clean or there are no
    reads. *)
