(** Execution traces: the engine-side front door of the observability
    pipeline.

    A trace bundles the typed-event {!Obs.Hub}, the {!Obs.Metrics}
    registry and the causal-span allocator that instrumented code reports
    into.  Counters delegate to the metrics registry, so [Trace.counter]
    and [Obs.Metrics.counter] observe the same values.

    To see what a run did, attach a sink to the hub: the [experiments
    trace] subcommand prints a read's causal span tree and exports it as
    [stabreg/trace/v1] JSONL or a Chrome trace, and [--trace-out FILE]
    on [experiments run] appends every deployment's typed event stream to
    [FILE].  With no sink attached, nothing is formatted or buffered. *)

type t

val create : ?metrics:Obs.Metrics.t -> ?hub:Obs.Hub.t -> unit -> t
(** Fresh registry and hub unless given; typed events flow whenever a
    sink is attached to the hub. *)

val metrics : t -> Obs.Metrics.t

val hub : t -> Obs.Hub.t

val spans : t -> Obs.Trace_ctx.t
(** The run's causal-span allocator.  Ids are handed out whether or not
    tracing sinks are attached, so span assignment never depends on
    observability configuration. *)

val incr : t -> string -> unit
(** Bump a named counter by one. *)

val add : t -> string -> int -> unit
(** Bump a named counter by [n]. *)

val counter : t -> string -> int
(** Current value of a counter (0 if never bumped). *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val reset_counters : t -> unit
