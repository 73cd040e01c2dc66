(** Register value domain.

    The registers store opaque values compared structurally.  [Stamped]
    packs the [(value, epoch, seq)] triples exchanged between the MWMR
    construction and its underlying SWMR registers (§5.2); [Bot] is the
    default-initialized content standing for the arbitrary initial value of
    an unwritten (or corrupted) register. *)

type t =
  | Bot  (** unwritten / unknown *)
  | Int of int
  | Str of string
  | Stamped of stamped
      (** an MWMR triple travelling through an underlying SWMR register *)

and stamped = { data : t; epoch : Epoch.t; seq : int }

val equal : t -> t -> bool

val compare : t -> t -> int
(** Total structural order ([Bot < Int < Str < Stamped], then
    componentwise, epochs by {!Epoch.compare_structural}), consistent
    with {!equal}.  Typed all the way down: safe on any reachable —
    including corrupted — value, with no polymorphic-compare fallback. *)

val bot : t

val int : int -> t

val str : string -> t

val stamped : data:t -> epoch:Epoch.t -> seq:int -> t

val wire_bytes : t -> int
(** Serialized-size estimate (1-byte tag + payload; epochs count 16 bytes,
    ints 8), for per-message-class traffic accounting. *)

val arbitrary : Sim.Rng.t -> t
(** A random non-[Stamped] value, for transient-fault injection. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
(** [⊥], the int, an OCaml-escaped quoted string, or
    [<data @ (s,{a1,a2,...})/seq>]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Append {!to_string}'s bytes without the intermediate string. *)

val add_decimal : Buffer.t -> int -> unit
(** Append [string_of_int i]'s bytes; cheaper than [string_of_int] on
    the non-negative ints that name clients, links and sequence numbers. *)
