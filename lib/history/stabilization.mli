(** The post-fault verdict: what "regular (or atomic) from the first
    write completed after the last transient fault" means for a recorded
    history (Theorems 1–4, [tau_no_tr] → [tau_stab]).

    No oracle can expect anything across a disturbance, so the history is
    cut at every disturbance point and each segment checked on its own,
    from a cutoff at the response of the first write invoked inside it —
    the experiment's stand-in for [tau_stab].  A segment with no write is
    vacuous: nothing re-established the register there.  MWMR timestamps
    are global, so a per-segment check would mis-flag legitimate
    cross-segment evolution; the MW condition is checked once, on the
    suffix after the last point.

    Every chaos and mc verdict, the recovery oracle's stabilization time
    and the shard tier's post-chaos cutoff come from this module. *)

(** {2 Register families} *)

type family = Regular | Atomic | Mwmr

val family_to_string : family -> string

val family_of_string : string -> (family, string) result

(** {2 Verdicts} *)

type verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }
      (** [kind] is one of ["regularity"], ["inversion"], ["mw"],
          ["liveness"], ["stuck"]; [count] is how many issues of that
          kind the history has; [detail] is the first witness. *)

val verdict_kind : verdict -> string
(** ["clean"] or the violation kind — the identity shrinking preserves. *)

val same_kind : verdict -> verdict -> bool
(** Same {!verdict_kind}. *)

val verdict_equal : verdict -> verdict -> bool
(** Same kind, count and detail — what a strict replay must reproduce. *)

val pp_verdict : Format.formatter -> verdict -> unit

val verdict_codec : verdict Obs.Json.codec
(** [{"kind": "clean"}] or [{"kind", "count", "detail"}].  The decoder
    rejects a kind outside [clean|regularity|inversion|mw|liveness|stuck]
    and a violation with [count < 1]. *)

val verdict_to_json : verdict -> Obs.Json.t

val verdict_of_json : Obs.Json.t -> (verdict, string) result
(** {!verdict_codec}'s decoder at context ["verdict"]. *)

(** {2 Segments and cutoffs} *)

val cutoff_from : History.t -> lo:int -> Sim.Vtime.t option
(** Response instant of the first write invoked at or after [lo] — the
    segment's stabilization cutoff; [None] when no write lands there.
    [cutoff_from h ~lo:0] is the first write's completion. *)

(** {2 The segmented check} *)

type condition =
  | Regular_cond  (** {!Regularity} per segment *)
  | Sw_atomic  (** {!Atomicity.Sw} per segment *)
  | Mw_atomic  (** {!Atomicity.Mw} on the suffix after the last point *)

val condition_of_family : family -> condition

val verdict_of_issues : (string * string) list -> verdict
(** Fold [(kind, detail)] issues into a verdict: the first issue of a
    safety kind wins over any ["liveness"] issue, and [count] counts the
    issues of the chosen kind only. *)

val check :
  ?stuck:string list ->
  ?grace:int ->
  condition ->
  points:int list ->
  History.t ->
  verdict
(** [check cond ~points h] cuts [h] at each of [points] (ascending
    instants) and checks every segment from its cutoff.  The segment
    [\[lo, hi)] holds the reads invoked at or after [lo] that responded
    before [hi], and every write (a write before the segment still
    determines what reads inside it may return).  A non-empty [stuck]
    (fibers that never finished) outranks every oracle issue.

    [grace] (default 0) delays the start of every segment after a point,
    never the end of the one before it: the segments are [\[0, p1)],
    [\[p1 + grace, p2)], ..., [\[pk + grace, ∞)], and the MWMR suffix
    starts at [pk + grace].  A read invoked inside a grace period, or
    straddling a point, is checked in no segment. *)

val time : History.t -> lo:int -> hi:int -> int option
(** Stabilization time of the segment [\[lo, hi)]: the response of the
    first read the {!Regularity} checker certifies — invoked at or after
    the segment's cutoff, successful, and not flagged — minus [lo].
    [None] when no read is certified in the segment. *)
