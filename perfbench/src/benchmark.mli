(** The benchmark's definition, read from [BENCHMARK.json]: the workloads,
    the end-to-end metrics with their regression bounds, and the
    per-layer metrics.  The benchmark emits only metrics named there. *)

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** the share of the base median by which the metric may worsen;
          end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;  (** emitted by every untraced run; never 0 *)
  per_layer : metric list;
      (** emitted by traced runs, by the workloads whose layers take part *)
}

val better_to_string : better -> string
(** ["higher"] or ["lower"], as [BENCHMARK.json] spells them. *)

val of_json : Obs.Json.t -> (t, string) result

val load : string -> (t, string) result
(** Read and parse the file at the path. *)
