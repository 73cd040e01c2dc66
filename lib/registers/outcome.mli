(** Typed result of every register operation.

    The paper's clients block until their acknowledgment quota arrives;
    under a crash burst past the fault bound that is a silent hang.  With a
    {!Params.retry} policy that has a deadline, operations instead return
    within a bounded number of deadline-limited attempts.  Either way they
    report {e how} they finished: fully serviced ([Ok]), answered by
    enough servers to be meaningful but below the paper's quota
    ([Degraded]), or starved even of a read quorum ([Timed_out]).
    Degradation is diagnosed, never silent:
    the [reason] carries the retry effort, the best acknowledgment count
    seen, the quota it was measured against, and the health module's
    current suspects. *)

type reason = {
  attempts : int;  (** collection attempts spent (1 = no retry needed) *)
  acks : int;  (** most distinct servers that answered in any attempt *)
  need : int;  (** the quota a fully-serviced operation required *)
  suspects : int list;  (** slots the port's {!Health} tracker suspects *)
}

type 'a t =
  | Ok of 'a
  | Degraded of reason
      (** at least a read quorum answered, but fewer than the full quota *)
  | Timed_out of reason
      (** not even a read quorum answered within the retry budget *)

val no_reason : reason

val is_ok : 'a t -> bool

val to_option : 'a t -> 'a option
(** Forgetful view: [Ok v] is [Some v], a failure is [None]. *)

val map : ('a -> 'b) -> 'a t -> 'b t

val reason : 'a t -> reason option

val rank : 'a t -> int
(** [Ok] < [Degraded] < [Timed_out] (0, 1, 2). *)

val kind : 'a t -> string
(** ["ok"] / ["degraded"] / ["timeout"] — stable labels for artifacts. *)

val worse : 'a t -> 'a t -> 'a t
(** Worst of two outcomes, merging failure reasons — for composite
    operations built from several sub-operations. *)

val merge_reason : reason -> reason -> reason

val pp_reason : Format.formatter -> reason -> unit

val pp :
  (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit

val reason_to_json : reason -> Obs.Json.t

(** {1 Tallies}

    How a batch of operations finished, one count per kind.  The recovery
    and shard artifacts carry it as [{"ok", "degraded", "timed_out"}]. *)

type tally = { ok : int; degraded : int; timed_out : int }

val zero_tally : tally

val add_tally : tally -> tally -> tally

val bump : tally -> 'a t -> count:int -> tally
(** [bump t o ~count] adds [count] operations that finished as [o]. *)

val tally_codec : unit -> tally Obs.Json.codec

val pp_tally : Format.formatter -> tally -> unit
(** ["3 ok / 1 degraded / 0 timed out"]. *)
