(** Fault schedules: the machine-generated adversity a campaign applies.

    A schedule is a time-sorted list of fully concrete disturbance events —
    every random choice (targets, slots, strategies, window shapes) is
    resolved at generation time, so a schedule replays bit-identically, can
    be serialized to JSON, and shrinks by plain list surgery. *)

type direction = Registers.Net.direction = To_servers | From_servers | Both

type event =
  | Inject of { at : int; prefix : string }
      (** {!Sim.Fault.inject_matching} over the prefix at instant [at]. *)
  | Roam of { at : int; assign : (int * Strategy.t) list }
      (** {!Byzantine.Adversary.roam}: the Byzantine set becomes exactly
          [assign] (vacated slots resume honest over corrupted state). *)
  | Window of {
      at : int;
      duration : int;
      loss : float;
      dup : float;
      dir : direction;
      server : int option;
          (** [Some s] restricts the window to links touching slot [s] — a
              directed partition when [loss = 1.0]. *)
    }
      (** Link-chaos window: every client port's transports run at
          [loss]/[dup] from [at] until [at + duration], then return to the
          medium's base rates.  A no-op under the [Reliable_fifo] medium. *)
  | Crash of { at : int; server : int; down_for : int option }
      (** {!Harness.Scenario.crash} of slot [server]: crash-stop
          when [down_for] is [None], crash-recovery (rejoining over
          arbitrary state at [at + down_for]) otherwise. *)

type t = event list
(** Sorted by {!time} (stable for equal instants). *)

val time : event -> int

val sort : t -> t

val disturbance_points : t -> int list
(** Sorted, deduplicated instants after which the oracle expects the next
    completed write to re-establish the register condition: every event's
    [at], plus each window's closing instant, plus each crash-recovery's
    recovery instant (the rejoin over arbitrary state is itself a
    transient fault). *)

val event_to_json : event -> Obs.Json.t

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result

val check : n:int -> t -> (unit, string) result
(** Every event is replayable against [n] servers: non-negative
    instants and durations, roam slots in [\[0, n)], window rates in
    [\[0, 1]], positive recovery windows. *)

val equal : t -> t -> bool

val pp_event : Format.formatter -> event -> unit
