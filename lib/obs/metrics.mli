(** The metrics registry: named counters and log-bucketed latency
    histograms.

    One registry lives in each engine ([Sim.Engine.metrics]); protocol
    and substrate code bump counters and observe latencies, run reports
    serialize the registry.  Counters are plain [int ref]s — hot paths
    can resolve {!counter_ref} once and skip the name lookup. *)

(** {1 Histograms} *)

type histogram

val observe : histogram -> float -> unit
(** Record one sample (negative samples clamp to 0). *)

val hist_count : histogram -> int

val hist_min : histogram -> float

val hist_max : histogram -> float
(** Exact extremes (0 on an empty histogram). *)

val hist_mean : histogram -> float

val quantile : histogram -> float -> float
(** Estimated quantile by linear interpolation inside the containing log
    bucket; exact at [q <= 0] (min) and [q >= 1] (max); within one
    bucket's relative width (~19%) otherwise.  0 on an empty
    histogram. *)

val bucket_index : float -> int
(** Bucket 0 holds [0, 1); bucket [i >= 1] holds
    [2^((i-1)/4), 2^(i/4)) — four buckets per doubling.  Exposed for the
    boundary tests. *)

val bucket_bounds : int -> float * float
(** Inclusive-lo/exclusive-hi bounds of a bucket; the last bucket's hi is
    [infinity]. *)

val num_buckets : int

(** {1 Summaries} *)

type summary = {
  count : int;
  mean : float;
  min : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
  max : float;
}
(** Nine-number summary of a latency sample, as run reports and the
    experiment tables print it. *)

val summary : float list -> summary
(** Exact, over the whole sample (1-based nearest-rank percentiles).
    Raises [Invalid_argument] on an empty list. *)

val summary_of_histogram : histogram -> summary
(** Approximate: quantiles by {!quantile}, count/mean/min/max exact. *)

val summary_codec : unit -> summary Json.codec
(** [{count, mean, min, p50, p90, p95, p99, p999, max}]. *)

(** {1 Registry} *)

type t

val create : unit -> t

val incr : t -> string -> unit

val add : t -> string -> int -> unit

val counter : t -> string -> int
(** 0 if never bumped. *)

val counter_ref : t -> string -> int ref
(** Find-or-create; the returned ref is the counter for the registry's
    whole lifetime. *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val histogram : t -> string -> histogram
(** Find-or-create. *)

val observe_named : t -> string -> float -> unit

val histograms : t -> (string * histogram) list
