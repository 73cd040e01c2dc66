(** Results files, and the comparison of two of them.  End-to-end
    metrics are judged by their medians against the bounds in
    [BENCHMARK.json].  The share of failed work and the {!exact}
    per-layer metrics repeat exactly for a seed, so they are judged seed
    by seed with a bound of 0. *)

type verdict = Better | Same | Worse | Unresolved

val verdict_to_string : verdict -> string

val judge :
  better:Benchmark.better -> bound:float -> base:float array -> next:float array ->
  verdict
(** Compare the medians of two non-empty sample sets.  When the
    quartile spread of either side, as a share of its median, exceeds
    the bound, the change is [Unresolved] unless every [next] sample
    beats every [base] sample.  Otherwise it is [Worse] or [Better] when
    the median moved by more than the bound, and [Same] within it. *)

val judge_exact : better:Benchmark.better -> (float * float) list -> verdict
(** Pairs of (base, next) values measured on the same seed: [Worse] when
    any pair got worse, else [Better] when any got better, else [Same]. *)

val exact : string list
(** The per-layer metrics computed from virtual time and the library's
    own counters, the paper's units of cost.  Every run of a seed gives
    the same value, so any change between runs of one seed is real. *)

type run = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  metrics : (string * float) list;
}

val runs_of_results : Obs.Json.t -> (run list, string) result
(** The runs of a parsed [perfbench/results/v1] file. *)

type row = {
  workload : string;
  metric : string;
  base_median : float;
  next_median : float;
  verdict : verdict;
}

val rows : Benchmark.t -> base:run list -> next:run list -> row list
(** For each workload in both files: one row per end-to-end metric, from
    the untraced runs; one [fail_ratio] row (failed over attempted) from
    runs paired by seed and trace flag; and one row per {!exact} metric
    from traced runs paired by seed, left out when it is 0 on both sides
    (the layer takes no part in the workload). *)

val run_record :
  workload:string -> seed:int -> seconds:float -> trace:bool -> Obs.Json.t ->
  Obs.Json.t
(** One run of a results file, around the run's result line. *)

val results_file : Obs.Json.t list -> Obs.Json.t
