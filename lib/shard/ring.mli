(** Seeded consistent-hash ring with virtual nodes.

    Each shard owns [vnodes] points on a 62-bit ring; a key maps to the
    shard owning the first point at or clockwise after the key's hash.
    Point positions are a pure function of (seed, shard index, vnode
    index) — splitmix64-finalized, platform-independent — so:

    - the same (seed, shards, vnodes) always yields the same placement;
    - a ring of [S + 1] shards has every point of the ring of [S]
      shards (same seed and vnodes) plus the new shard's, so a key
      either keeps its shard or moves to the new one (minimal remap,
      ~K/S keys);
    - with enough virtual nodes, key load balances across shards.

    All orderings use [Int.compare]; no polymorphic compare. *)

type t

val create : seed:int -> shards:int -> vnodes:int -> t
(** Raises [Invalid_argument] unless both counts are positive. *)

val shards : t -> int

val vnodes : t -> int

val seed : t -> int

val shard_of : t -> string -> int
(** The shard owning a key. *)

val points : t -> (int * int) array
(** A copy of the sorted [(position, shard)] point array (for tests). *)

val spread : t -> string list -> int array
(** Keys-per-shard histogram of a concrete key population. *)

val key_hash : seed:int -> string -> int
(** The key digest itself (FNV-1a salted and finalized); exposed for
    determinism tests. *)
