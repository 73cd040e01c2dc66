(** The versioned [stabreg/lint-report/v1] artifact and the committed
    baseline ([stabreg/lint-baseline/v1]).

    The report serializes a whole scan: the rule catalog, every
    unsuppressed finding (tagged with whether the committed baseline
    already carries it), and summary counters.  Rendering is canonical —
    findings sorted, no timestamps — so re-running the driver twice over
    the same tree produces byte-identical files.

    The baseline lists accepted findings by [(file, rule, message)]; the
    line is only a pointer, so an edit above a baselined finding does not
    make it new.  Each entry accepts one finding: a file with more findings
    of a triple than the baseline lists reports the extra ones as new.  CI
    fails only on findings outside the baseline, so the baseline can be
    burned down entry by entry without blocking unrelated work. *)

val schema_version : string

val baseline_schema_version : string

val domains_schema_version : string
(** [stabreg/lint-domains/v2]: the shared-state inventory (verdict
    counts over every mutable value, and each value that is not [local]
    by module and binding). *)

type entry = {
  file : string;
  rule : string;
  line : int;  (** where the finding was when accepted; not matched on *)
  note : string;  (** the finding's message when accepted *)
}

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
(** Partition a scan's findings against the baseline: a finding is
    baselined when an entry of its file, rule and message is still unused
    (findings claim entries in list order); the entries left unused are
    [stale_baseline]. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Decode a report; the rule catalog and the summary's [new]/[baselined]
    counts are checked for shape only. *)

val render : t -> string
(** Canonical pretty-printed JSON, trailing newline included. *)

val validate : Obs.Json.t -> (unit, string) result
(** {!of_json}, keeping only the verdict. *)

val baseline_to_json : entry list -> Obs.Json.t

val baseline_of_findings : Finding.t list -> Obs.Json.t
(** Build a baseline artifact accepting exactly these findings (the
    finding message is carried as an informational [note]). *)

val render_baseline : Obs.Json.t -> string

val baseline_entries : Obs.Json.t -> (entry list, string) result
(** Decode a baseline artifact, entries in file order; a missing [note]
    decodes as [""]. *)

val validate_baseline : Obs.Json.t -> (unit, string) result

type domains
(** A decoded {!domains_schema_version} document. *)

val domains_to_json : domains -> Obs.Json.t

val domains_of_json : Obs.Json.t -> (domains, string) result

val render_domains :
  paths:string list -> Escape.module_inventory list -> string
(** A scan's shared-state inventory as canonical pretty-printed JSON,
    trailing newline included.  Values follow the (sorted) scan order and
    each module's source order, with no source positions and no
    timestamps, so the document changes only when shared state does. *)

val validate_domains : Obs.Json.t -> (unit, string) result
(** {!domains_of_json}, keeping only the verdict. *)
