(** Deterministic fan-out over OCaml 5 domains, plus the shared-memory
    primitives for the model checker's cooperative frontier search.

    The one guarantee everything else in this repo leans on: the value
    [map ~domains f items] returns — including which exception it
    raises, if any — is a function of [f] and [items] alone, never of
    how the runtime schedules domains.  Work is assigned round-robin
    before any domain starts, results land in distinct slots, and
    failures are reported in item order.  [f] must itself be
    self-contained: it runs concurrently with the other items and must
    not touch shared mutable state.

    The frontier primitives ({!Deque}, {!Visited}, {!Frontier},
    {!scatter}) deliberately relax that contract: they are the
    *sanctioned* shared state for cooperative search, each internally
    synchronized (per-shard or per-deque mutexes, atomic counters) so
    callers never hold a lock themselves.  Timing-dependent facts (who
    stole what, who visited a state first) stay internal; callers are
    responsible for reporting only schedule-independent projections. *)

exception Worker_failure of int * exn
(** [Worker_failure (i, e)]: applying [f] to item [i] raised [e].  When
    several items fail, the lowest index wins — deterministically —
    regardless of which domain crashed first in wall-clock time. *)

val map : domains:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~domains f items] is [List.map f items] computed on up to
    [domains] domains ([domains - 1] spawned workers plus the calling
    domain).  Item order is preserved.  Item [0] always runs on the
    calling domain, so callers may give it caller-local side effects
    (e.g. attaching an observability sink).  With [domains = 1] (or a
    single item) no domain is spawned at all and the call is exactly
    [List.map].  Raises [Invalid_argument] if [domains < 1]. *)

val scatter : domains:int -> (int -> 'a) -> 'a list
(** [scatter ~domains f] runs [f 0 .. f (domains-1)], one call per
    domain ([f 0] on the calling domain, the rest on spawned workers),
    and returns the results in index order.  Unlike {!map} this is the
    *cooperative* fan-out: all calls run concurrently by construction,
    so the [f i] may communicate through internally-synchronized
    structures ({!Frontier}, {!Visited}, [Atomic.t]) handed to them.
    Failures are reported as [Worker_failure] with the lowest failing
    index.  Raises [Invalid_argument] if [domains < 1]. *)

exception Nondeterministic of int
(** [Nondeterministic i]: item [i] produced a different result when the
    fan-out was re-run with inverted scheduling order. *)

val map_checked :
  domains:int ->
  ?recheck:('a -> 'b) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** The deterministic race harness.  [map_checked ~domains f items] is
    [map ~domains f items], then the same shard set run a second time
    with inverted scheduling — workers spawned in reverse shard order,
    each shard walking its items highest-index first (item [0] still on
    the calling domain) — asserting per-item equal results.  A mismatch
    (or a second-pass failure) raises [Nondeterministic i] for the
    lowest differing index; otherwise the first pass's results are
    returned, so a clean [map_checked] is observationally [map].
    Results are compared by structural equality; [recheck] (default
    [f]) runs the second pass, letting callers suppress caller-local
    side effects (e.g. not re-attaching a sink) while computing the same
    value. *)

(** Mutex-protected double-ended work queue: the per-worker building
    block of {!Frontier}.  [push]/[pop] operate on the newest end (the
    owner's LIFO, preserving depth-first locality); [steal] takes from
    the oldest end, i.e. the shallowest outstanding work — the biggest
    subtree, which amortizes the thief's replay cost.  Every operation
    takes the deque's lock, so any mix of concurrent callers is safe. *)
module Deque : sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> 'a -> unit
  val pop : 'a t -> 'a option
  (** Newest end (LIFO). *)

  val steal : 'a t -> 'a option
  (** Oldest end (FIFO). *)

  val length : 'a t -> int
end

(** The model checker's visited set, packed: a set of two-word keys,
    each with a fixed-width bitset ([width] ints of 63 bits), sharded by
    the first key word and locked per shard.  Each shard is one
    open-addressing table in one [Bytes] of fixed-width slots — the two
    key words, then the bitset, 8 bytes a word — doubled when its load
    passes 0.7.  A key is trusted whole: two keys are one entry iff both
    words are equal.  [collisions] counts the insertions of a key whose
    first word a resident key of its shard already has: how often the
    second word alone told two keys apart. *)
module Visited : sig
  type t

  val create : ?shards:int -> width:int -> unit -> t
  (** [shards] defaults to 64; each shard preallocates 1024 slots, so a
      single-domain caller should ask for one.  Raises
      [Invalid_argument] if [shards < 1] or [width < 1]. *)

  val arrive : t -> k1:int -> k2:int -> int array -> outside:int array -> bool
  (** [arrive t ~k1 ~k2 bits ~outside], *atomically* under the shard
      lock: if the key is absent, insert it with [bits] and return
      [false]; otherwise write into [outside] the resident bits outside
      [bits], keep only the resident bits inside [bits] (nothing is
      written when [outside] is empty), and return [true].  This is the
      model checker's sleep-set revisit: the resident bitset is the
      residual, [bits] the arrival's sleep set.  Nothing is allocated
      unless the shard's table grows.  Raises [Invalid_argument] if [bits] or [outside] is not [width]
      long. *)

  val find : t -> k1:int -> k2:int -> int array option
  (** A copy of the key's bitset, if it is resident. *)

  val length : t -> int
  (** Keys resident, across all shards. *)

  val collisions : t -> int
  (** Keys inserted beside a resident key with the same first word. *)

  val width : t -> int
end

(** The shared work-stealing frontier: one {!Deque} per worker plus an
    atomic count of outstanding tasks and a stop flag.  Workers [push]
    to their own deque, [take] from their own deque first (newest end)
    and otherwise steal the oldest task from a sibling, scanning
    victims round-robin from their own index.  Work-conserving
    termination: [take] answers [`Done] only once no task is queued
    *and* none is still being processed (each [push] increments the
    outstanding count; the processor calls [finish] after expanding a
    task, children already pushed). *)
module Frontier : sig
  type 'a t

  val create : ?reverse_steal:bool -> workers:int -> unit -> 'a t
  (** [reverse_steal] scans steal victims in descending index order —
      the inverted schedule used by race-check second passes.  Raises
      [Invalid_argument] if [workers < 1]. *)

  val push : 'a t -> worker:int -> 'a -> unit

  val take : 'a t -> worker:int -> [ `Task of 'a | `Retry | `Done ]
  (** [`Retry]: nothing to steal right now but some task is still in
      flight and may spawn work — spin (with [Domain.cpu_relax]) and
      ask again.  [`Done]: the frontier is drained or [stop]ped. *)

  val finish : 'a t -> worker:int -> unit
  (** Declare the task obtained from [take] fully expanded. *)

  val stop : 'a t -> unit
  (** Make every subsequent [take] answer [`Done] (early exit on a
      violation or an exhausted budget).  Idempotent. *)

  val stopped : 'a t -> bool

  val steals : 'a t -> int array
  (** Per-worker count of tasks obtained by stealing (a copy). *)
end
