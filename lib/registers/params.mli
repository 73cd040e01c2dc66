(** System parameters and the paper's quorum thresholds.

    The asynchronous constructions (Figs. 2 and 3) require [n >= 8t + 1];
    the synchronous ones (Fig. 5 and the §4 remark) require [n >= 3t + 1].
    The reader/writer thresholds differ accordingly:

    {v
                          asynchronous (t < n/8)   synchronous (t < n/3)
    acks awaited                n - t              n  (or timeout)
    last_val / helping quorum   2t + 1             t + 1
    writer help-refresh check   4t + 1             t + 1
    v} *)

type mode =
  | Async
  | Sync of { max_delay : int; slack : int }
      (** [max_delay] is the known bound (in ticks) on message transfer
          delays of links touching correct processes; waits time out after
          a round trip plus [slack]. *)

type retry = {
  deadline : Sim.Vtime.span option;
      (** per-attempt wait for acknowledgments, in ticks; [None] waits as
          the paper does: until the quota answers (async) or the round-trip
          bound passes (sync) *)
  attempts : int;  (** max collection attempts per operation *)
  backoff : Sim.Vtime.span;  (** backoff before the second attempt *)
  backoff_factor : int;  (** multiplier per further attempt *)
  backoff_max : Sim.Vtime.span;  (** backoff ceiling *)
  jitter : Sim.Vtime.span;
      (** max extra ticks added to each backoff, drawn from a
          deterministic per-port stream seeded by [jitter_seed] *)
  jitter_seed : int;
}
(** Client-side wait policy.  With a [deadline], every acknowledgment wait
    is bounded (even in the asynchronous model, where the paper's client
    blocks until [n - t] answers), expired attempts feed the port's
    {!Health} tracker, and the client retries with deterministic
    exponential backoff.  Purely vtime-based — two runs with the same seed
    take identical schedules. *)

val paper_wait : retry
(** The paper's unbounded wait: [{deadline = None; attempts = 1}], no
    backoff, no jitter, [jitter_seed = 0].  No server is ever suspected
    under it. *)

val default_retry : retry
(** [{deadline = Some 60; attempts = 4; backoff = 8; backoff_factor = 2;
    backoff_max = 64; jitter = 5; jitter_seed = 0x5eed}]. *)

val backoff_span : retry -> attempt:int -> Sim.Vtime.span
(** Backoff (without jitter) before retry number [attempt] (1-based):
    [backoff * backoff_factor^(attempt-1)] capped at [backoff_max]. *)

type t = private { n : int; f : int; mode : mode; retry : retry }
(** [n] servers of which at most [f] are Byzantine (the paper's [t];
    renamed to avoid clashing with the conventional type name [t]).
    [retry] defaults to {!paper_wait}. *)

val create : ?retry:retry -> n:int -> f:int -> mode:mode -> unit -> (t, string) result
(** Validates the resilience bound for the mode. *)

val create_exn : ?retry:retry -> n:int -> f:int -> mode:mode -> unit -> t

val create_unchecked : ?retry:retry -> n:int -> f:int -> mode:mode -> unit -> t
(** Skip the resilience validation — used by the tightness experiments that
    deliberately run the algorithms outside their assumptions. *)

val retry : t -> retry

val satisfies_bound : t -> bool
(** [n >= 8f+1] (async) resp. [n >= 3f+1] (sync). *)

val ack_wait : t -> int
(** How many acknowledgments a client waits for: [n - f] async, [n] sync
    (with timeout). *)

val read_quorum : t -> int
(** Matching-value threshold at the reader (lines 12/14): [2f+1] async,
    [f+1] sync. *)

val help_refresh_threshold : t -> int
(** Writer's line-03 threshold for skipping NEW_HELP_VAL: [4f+1] async,
    [f+1] sync. *)

val write_ok_threshold : t -> int
(** Fewest acknowledgments for a bounded-wait write to count as fully
    serviced rather than degraded: [n - f] async (the paper's quota), [f+1]
    sync (where waiting out the timeout with a correct quorum is the normal
    path). *)

val sync_timeout : t -> Sim.Vtime.span option
(** Round-trip timeout in sync mode; [None] in async mode. *)

val pp : Format.formatter -> t -> unit
