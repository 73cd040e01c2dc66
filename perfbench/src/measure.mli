(** One benchmark run of one workload: repeat rounds until the time is
    up, then reduce them to the metrics [BENCHMARK.json] names. *)

type result = {
  workload : string;
  correct : bool;  (** every round passed its checks *)
  attempted : int;
  failed : int;
  errors : string list;
  metrics : (Benchmark.metric * float option) list;
      (** the end-to-end metrics untraced, the per-layer ones traced, in
          [BENCHMARK.json] order; [None] where the workload has no value
          (its layer takes no part, or a percentile lacks samples) *)
  notes : string list;  (** sample counts behind medians and percentiles *)
}

val run :
  ?size:int ->
  Benchmark.t ->
  Workloads.t ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  result * Spans.t
(** After one untimed warm-up round, rounds repeat until [seconds] have
    passed (at least two rounds) or a check fails.  Untraced, the run
    reports the median set-up time, the median units per second of the
    rounds, both scaled to the nominal machine by the {!Reference} work
    timed next to them, and the peak major heap after the warm-up.  With
    [trace], rounds alternate untraced and traced; the traced ones record
    spans, from which and from the rounds' layer observations the
    per-layer metrics are derived, the untraced ones give the GC
    metrics, and [trace_overhead_pct] compares the two kinds of rounds.
    Raises [Invalid_argument] if the run derives a metric that
    [BENCHMARK.json] does not list for its mode. *)

val to_json : result -> Obs.Json.t
(** [{"correct", "attempted", "failed", "metrics": {name: {"value",
    "unit"}}}], with 0 for a metric the workload has no value for. *)

val pp : Format.formatter -> result -> unit
