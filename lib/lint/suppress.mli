(** Explicit, carried-in-source finding suppression.

    One form, naming the rule id so a suppression is always a visible,
    reviewable decision: a comment containing [lint: allow R1 R4]
    suppresses the named rules on that source line.  Anything after [--]
    in the pragma is free-text rationale.  Findings a pragma does not
    name, or on other lines, are kept; a finding that cannot be fixed at
    the site goes into [lint-baseline.json] instead. *)

type span = { rules : string list; line : int }
(** One pragma: the rule ids it names and the line it covers. *)

val collect : string -> span list
(** All pragmas of one file's source text. *)

val filter :
  ?active:string list ->
  span list ->
  Finding.t list ->
  Finding.t list * int * (span * string) list
(** Keep findings not covered by any span; also return the number
    suppressed and the list of {e unused} (span, rule) pairs — named
    suppressions that matched no finding.  Unused-ness is judged only
    for rule ids in [active] (the rules that actually ran and apply to
    the file), so partial runs don't misreport. *)
