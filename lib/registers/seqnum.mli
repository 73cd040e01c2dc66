(** Bounded write sequence numbers and the clockwise-distance order (§4).

    The practically atomic register counts writes with a sequence number
    [wsn] drawn from [0 .. modulus-1] (the paper uses modulus 2^64 + 1).
    Two sequence numbers are compared by the clockwise-distance relation
    [>_cd]: [x >=_cd y] iff the clockwise distance from [y] to [x] is
    smaller than their anticlockwise distance.  The modulus must be odd so
    the two distances can never tie for distinct values.

    The modulus is a parameter (default [2^61 + 1], the largest practical
    odd bound below OCaml's native-int range); tests and experiments use
    tiny moduli to exercise wrap-around, which the paper can only reason
    about abstractly. *)

type t = int
(** A sequence number in [0 .. modulus-1]. *)

val default_modulus : int
(** [2^61 + 1]. The paper's "system-life-span" bound stand-in. *)

val validate_modulus : int -> unit
(** Raises [Invalid_argument] unless the modulus is odd and [>= 3]. *)

val zero : t

val succ : modulus:int -> t -> t
(** Next sequence number, wrapping at [modulus] (line N1 of Fig. 3). *)

val norm : modulus:int -> int -> t
(** Map an arbitrary (possibly corrupted) integer into the value space. *)

val ge_cd : modulus:int -> t -> t -> bool
(** [ge_cd ~modulus x y] is [x >=_cd y]. *)

val gt_cd : modulus:int -> t -> t -> bool
(** [gt_cd ~modulus x y] is [x >_cd y]  ([>=_cd] and [x <> y]). *)
