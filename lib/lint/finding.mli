(** A single static-analysis finding.

    Findings are value types: the driver collects them from every rule,
    sorts them into a canonical order and serializes them into the
    [stabreg/lint-report/v1] artifact, so two runs over the same tree
    produce byte-identical output. *)

type severity = Error | Warning

type t = {
  file : string;  (** path relative to the scan root, [/]-separated *)
  line : int;  (** 1-based *)
  col : int;  (** 0-based, matching compiler locations *)
  rule : string;  (** rule id, e.g. ["R1"] *)
  severity : severity;
  message : string;
}

val v :
  file:string ->
  line:int ->
  col:int ->
  rule:string ->
  severity:severity ->
  string ->
  t

val compare : t -> t -> int
(** Canonical report order: file, line, col, rule, message. *)

val severity_to_string : severity -> string

val severity_of_string : string -> (severity, string) result

val codec : unit -> t Obs.Json.codec
(** [{file, line, col, rule, severity, message}]. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: [rule] severity: message], the human-readable line
    the CLI prints. *)

val to_string : t -> string
