(** Deterministic splittable pseudo-random numbers (splitmix64).

    Every source of randomness in the simulator flows from a single seeded
    generator, split per component, so that a whole experiment is replayed
    bit-identically from its seed.  Splitting (rather than sharing) keeps
    component behaviour independent of the interleaving of draws. *)

type t

val create : int -> t
(** [create seed] is a fresh generator. Equal seeds give equal streams. *)

val split : t -> t
(** [split rng] derives an independent generator and advances [rng]. *)

val int : t -> int -> int
(** [int rng bound] is uniform in [\[0, bound)].  Raises [Invalid_argument]
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in rng lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val bool : t -> bool

val float : t -> float -> float
(** [float rng bound] is uniform in [\[0, bound)]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
