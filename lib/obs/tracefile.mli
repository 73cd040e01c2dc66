(** The [stabreg/trace/v1] artifact: its one writer, validation and
    causal-tree reconstruction.

    A trace file is JSONL: a header line
    [{"schema":"stabreg/trace/v1","experiment":...,"seed":...}] followed
    by one {!Event.to_json} object per line.  All timestamps are virtual
    clock ticks and all span ids come from the run's deterministic
    allocator, so two runs with the same seed produce byte-identical
    files. *)

val schema_version : string

val header : experiment:string -> seed:int -> Json.t
(** The header object for the first line of a trace file.  Outside this
    module only tests build trace lines: every run writes through a
    {!writer}. *)

val header_of_json : Json.t -> (string * int, string) result
(** Decode a header line: its [(experiment, seed)]. *)

val validate : string -> (unit, string) result
(** Validate a whole trace file's contents: the header line decodes with
    {!header_of_json}, every later line with {!Event.of_json}; errors
    carry 1-based line numbers. *)

(** {2 Writing} *)

type writer
(** An open trace file.  Every trace a run writes ([--trace-out], and
    [experiments trace --out]) goes through one. *)

val create : string -> experiment:string -> seed:int -> writer
(** Create the file (missing parent directories too, as {!File.create})
    and write its header line. *)

val write : writer -> Event.t -> unit
(** Append one event line: a sink for {!Hub.attach}. *)

val close : writer -> unit

(** {2 Causal trees}

    Reconstruction works on typed events (from {!Hub.record} or a parsed
    file).  A {!tree} node is one span; its [events] are the events
    stamped with that span in emission order, its [children] the spans
    allocated under it, in allocation order. *)

type tree = {
  span : int;
  parent : int;
  trace : int;
  events : Event.t list;
  children : tree list;
}

val trees : Event.t list -> tree list
(** All causal trees in a run, ordered by root span id.  Events with no
    span ({!Trace_ctx.none}) are dropped; spans whose parent was never
    observed become roots themselves. *)

val tree_for : Event.t list -> trace:int -> tree option

val span_interval : tree -> int * int
(** [(first, last)] event time over the node and all descendants. *)

val span_label : tree -> string
(** Short human-readable label derived from the node's first event
    (["op swsr_regular.read by c101"], ["round READ"], ...). *)

val describe_event : Event.t -> string

val pp_tree : Format.formatter -> tree -> unit
(** Indented rendering of the whole causal tree, one line per event. *)

val breakdown : tree -> (string * int * int) list
(** Per-phase latency rows [(label, start, finish)]: the whole operation
    first, then one row per direct child span (broadcast rounds,
    replies). *)

val pp_breakdown : Format.formatter -> (string * int * int) list -> unit
