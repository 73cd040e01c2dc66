(** The versioned [stabreg/lint-report/v1] artifact and the committed
    baseline ([stabreg/lint-baseline/v1]).

    The report serializes a whole scan: the rule catalog, every
    unsuppressed finding (tagged with whether the committed baseline
    already carries it), and summary counters.  Rendering is canonical —
    findings sorted, no timestamps — so re-running the driver twice over
    the same tree produces byte-identical files.

    The baseline lists accepted findings by [(file, rule, line)].  CI
    fails only on findings outside the baseline, so the baseline can be
    burned down entry by entry without blocking unrelated work. *)

val schema_version : string

val baseline_schema_version : string

val domains_schema_version : string
(** [stabreg/lint-domains/v1]: the per-module shared-state inventory
    (mutable values and their domain-escape verdicts). *)

type entry = { file : string; rule : string; line : int }

type t = {
  paths : string list;  (** scanned subdirectories, e.g. [["lib"; "bin"]] *)
  files_scanned : int;
  suppressed : int;
  stale_baseline : int;
      (** baseline entries matching no current finding *)
  fresh : Finding.t list;  (** findings not covered by the baseline *)
  baselined : Finding.t list;
}

val make :
  paths:string list ->
  files_scanned:int ->
  suppressed:int ->
  baseline:entry list ->
  Finding.t list ->
  t
(** Partition a scan's findings against the baseline. *)

val to_json : t -> Obs.Json.t

val render : t -> string
(** Canonical pretty-printed JSON, trailing newline included. *)

val validate : Obs.Json.t -> (unit, string) result
(** Structural schema check of a lint report. *)

val baseline_of_findings : Finding.t list -> Obs.Json.t
(** Build a baseline artifact accepting exactly these findings (the
    finding message is carried as an informational [note]). *)

val render_baseline : Obs.Json.t -> string

val baseline_entries : Obs.Json.t -> (entry list, string) result
(** Parse and structurally validate a baseline artifact. *)

val validate_baseline : Obs.Json.t -> (unit, string) result

val domains_to_json :
  paths:string list -> Escape.module_inventory list -> Obs.Json.t
(** Serialize a scan's shared-state inventory as
    [stabreg/lint-domains/v1].  Canonical: module order follows the
    (sorted) scan order, entries are line-sorted, no timestamps. *)

val render_domains :
  paths:string list -> Escape.module_inventory list -> string
(** Canonical pretty-printed JSON, trailing newline included. *)

val validate_domains : Obs.Json.t -> (unit, string) result
(** Structural schema check of a lint-domains inventory. *)
