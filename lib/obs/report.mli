(** Machine-readable per-run reports with a stable schema.

    Every experiment driver emits one of these (as [results/<exp>.json])
    when run with [--json]; the schema is versioned so reports from
    different commits can be diffed mechanically.  See EXPERIMENTS.md for
    the field-by-field description. *)

val schema_version : string

type t

val create : experiment:string -> seed:int -> t

val experiment : t -> string

val set_params : t -> n:int -> f:int -> mode:string -> unit

val has_params : t -> bool

val set_stabilization : t -> int -> unit
(** Stabilization delay in ticks; never calling this serializes as
    [null]. *)

val add_message_class :
  t -> name:string -> sent:int -> recv:int -> bytes:int -> unit

val add_op_summary : t -> name:string -> Metrics.summary -> unit

val set_counters : t -> (string * int) list -> unit

val observe_metrics : t -> Metrics.t -> unit
(** Copy a deployment's registry into the report: the per-message-class
    traffic counters ([msg.sent.*] / [msg.recv.*]), a
    {!Metrics.summary_of_histogram} of every populated
    ["op.<reg>.<op>"] histogram, and the remaining scalar counters.
    Calling it twice on one report duplicates the message and op
    sections, so the caller observes once. *)

val add_extra : t -> string -> Json.t -> unit
(** Free-form driver-specific payload under the ["extra"] key; not
    schema-checked beyond being an object member. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** Decode a report; [extra] may be absent (it decodes empty) but must be
    an object when present. *)
