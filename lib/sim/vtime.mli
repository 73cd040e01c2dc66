(** Virtual time for the discrete-event simulator.

    Time is a non-negative integer number of abstract ticks.  The paper's
    model assumes processing takes zero time and only message transfers take
    time, so ticks measure message-transfer delays exclusively.  Integer
    ticks keep the simulator fully deterministic (no floating-point drift
    across platforms). *)

type t [@@immediate]
(** An absolute instant. *)

type span = int
(** A duration in ticks; always non-negative in well-formed uses. *)

val zero : t
(** The simulation origin. *)

val of_int : int -> t
(** [of_int ticks] is the instant [ticks] after the origin.  Raises
    [Invalid_argument] if [ticks < 0]. *)

val to_int : t -> int
(** Ticks since the origin. *)

val add : t -> span -> t
(** [add t d] is the instant [d] ticks after [t]. *)

val diff : t -> t -> span
(** [diff later earlier] is the (possibly negative) span between them. *)

val compare : t -> t -> int

val ( <= ) : t -> t -> bool

val ( < ) : t -> t -> bool

val max : t -> t -> t

val pp : Format.formatter -> t -> unit
