(** Bounded epoch labels (§5.2; Alon, Attiya, Dolev, Dubois,
    Potop-Butucaru, Tixeuil, SSS'11).

    Fix [k > 1] and [K = k^2 + 1].  An epoch is a pair [(s, A)] with
    [s] in [X = {1..K}] and [A] a [k]-subset of [X].  The comparison
    [(s_i,A_i) > (s_j,A_j)] iff [s_j ∈ A_i  ∧  s_i ∉ A_j] is antisymmetric
    but {e partial}: [next_epoch] can always manufacture a label greater
    than any [k] given labels, which is what the MWMR construction needs
    when sequence numbers exhaust or corruption destroys comparability. *)

type t = { s : int; a : int list }
(** [a] is sorted, duplicate-free.  Transient faults may produce values
    violating the well-formedness invariants; all operations below are
    total and treat such values defensively. *)

val capacity : k:int -> int
(** [K = k*k + 1], the size of the ground set [X]. *)

val genesis : k:int -> t
(** A fixed well-formed epoch: [(1, {2..k+1})]. *)

val is_wellformed : k:int -> t -> bool

val equal : t -> t -> bool

val compare_structural : t -> t -> int
(** A {e total} structural order ([s], then [a] lexicographically),
    consistent with [equal].  This is not the semantic (partial) epoch
    order {!gt}; it exists so containers and typed comparators over
    values carrying epochs never fall back to polymorphic compare. *)

val gt : t -> t -> bool
(** The partial order [>]: [gt ei ej] iff [ej.s ∈ ei.a  ∧  ei.s ∉ ej.a]. *)

val ge : t -> t -> bool
(** [gt] or structural equality. *)

val max_epoch : t list -> t option
(** The element [>=] all others, if one exists (the paper's
    [max_epoch] predicate/selector). *)

val max_epoch_by : ('a -> t) -> 'a array -> t option
(** [max_epoch] of the epochs of [items], in order, without building the
    list. *)

val next_epoch : k:int -> t list -> t
(** An epoch [>] every one of the (at most [k]) given epochs: [s] is a
    ground-set element in none of their [a]-sets, and [a] contains all
    their [s]-components, padded deterministically to size [k].
    Out-of-range components of corrupted inputs are ignored.
    Raises [Invalid_argument] if more than [k] epochs are given. *)

val arbitrary : Sim.Rng.t -> k:int -> t
(** A random (well-formed) epoch, for fault injection. *)

val pp : Format.formatter -> t -> unit
