(** Stateful bounded DFS over {!Sys} executions, with safety +
    stabilization oracles, sleep-set partial-order reduction, shrinking,
    and replayable counterexample artifacts.

    The explorer enumerates every interleaving of pending deliveries and
    corruption-menu strikes up to the configured budgets.  {!Sys.t} is an
    explicit state, so a node's children run on {!Sys.clone}s of it; a
    schedule is re-executed from {!Sys.create} only where an artifact
    asks for one (cex replay and digest, guided runs, shrink
    candidates).

    States are merged by {!Sys.search_key}, not by the MD5
    {!Sys.fingerprint}: two 63-bit words hashed from the state's fields
    in canonical order (each server block's and the history's words
    cached in the state), equal iff the fingerprints are (up to a hash
    collision of both words).  MD5 runs only where an
    artifact records a digest: cex terminals, [--replay] and the golden
    walks.  The visited set is a {!Parallel.Pool.Visited}: per shard, one
    open-addressing table in [Bytes] of fixed-width slots — the key's two
    words, then the residual sleep set as a bitset over the canonical
    links, ⌈links / 63⌉ words, a width fixed per search by the config.
    Each visited state keeps that residual — the enabled moves no visit
    has explored from it yet: a revisit re-explores exactly the residual
    minus its own sleep set and nothing else (Godefroid's sleep sets
    combined with state matching), which both keeps the
    sleep-set/visited-set combination sound and avoids re-expanding
    already-covered successors.

    A search expands a node over move codes ({!Sys.enabled_codes}): a
    delivery is its raw link code, and a child's sleep set is a bitset
    over raw links, the parent's inherited set ANDed with the
    independence mask of the child's move ({!independence_masks}).  A
    sleep bit enters the canonical coordinates only at the visited set:
    each raw bit is renamed through the key's renaming
    ({!Sys.rename_link}).

    Every move the checker fires is a code ({!Sys.apply}): the search,
    replay, shrinking, canonical completion and guided runs alike.  A
    {!Sys.move} is the form a code takes in an artifact: a cex's or
    guide's schedule becomes codes where it comes in, and codes become
    moves only for a trace going out. *)

type verdict = Oracles.Stabilization.verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }
      (** See {!Oracles.Stabilization.verdict}. *)

val pp_verdict : Format.formatter -> verdict -> unit

val terminal_verdict : Sys.t -> verdict
(** Judge a terminal (no enabled moves) execution with
    {!Oracles.Stabilization.check}: deadlocked fibers first, then the
    family's condition (or SW atomicity under [Atomic_oracle]) on the
    history cut at every corruption instant. *)

type reduction = No_reduction | Sleep_sets

val reduction_to_string : reduction -> string

type budgets = { max_states : int; max_depth : int }

val default_budgets : budgets
(** 2,000,000 states, depth 10,000. *)

type stats = {
  mutable states : int;  (** nodes expanded *)
  mutable transitions : int;
  mutable terminals : int;
  mutable revisits : int;
      (** arrivals at an already-visited state (pruned outright or
          partially re-expanded from the stored residual) *)
  mutable sleep_skips : int;  (** moves skipped by sleep sets *)
  mutable sym_skips : int;  (** moves skipped as symmetric to a sibling *)
  mutable replays : int;
      (** schedules re-executed from the initial state: 1 for a guided
          run, 0 for a search, which clones states instead *)
  mutable off_target : int;  (** violations ignored by a [target] filter *)
  mutable fp_collisions : int;
      (** states keyed beside a resident state whose key has the same
          first word — how often the second key word alone told two
          states apart *)
  mutable peak_visited : int;
  mutable max_depth_seen : int;
  mutable truncated : bool;  (** some budget cut the search *)
}

type outcome = {
  verdict : verdict;
  exhaustive : bool;
      (** [true] iff no state/depth budget truncated the search: a [Clean]
          exhaustive outcome is a proof over the bounded configuration *)
  stats : stats;
  trace : Sys.move list option;  (** violating trace, execution order *)
}

val independence_masks : Config.t -> int array
(** The masks a search builds once, in its context, from
    {!Sys.independent}: for each link code [l] ({!Sys.links} of them),
    the bitset of the links whose deliveries commute with [l]'s, at
    [l × width] with [width = ⌈links / 63⌉] words of 63 bits.  A child's
    sleep set is its inherited set ANDed with the mask of its move. *)

val search :
  ?budgets:budgets ->
  ?reduction:reduction ->
  ?use_visited:bool ->
  ?seed:int ->
  ?target:string ->
  ?recorder:Obs.Profile.t ->
  Config.t ->
  outcome
(** Explore until a violation, exhaustion, or a budget.  Raises
    [Invalid_argument] on an invalid config.  [use_visited:false]
    additionally disables state merging (for cross-checking the
    fingerprint on tiny configs).

    [seed] shuffles the sibling order at every node (deterministically
    from the seed), so a state budget reaches different corners first.
    The same seed explores the same states every time.  Different orders
    are meant to cover one reduced state space, but today they need not:
    the search key can merge states whose futures differ
    ({!Sys.fingerprint}), so the unique-state count depends on the order
    (regular n = 4, t = 1, one silent server, no reduction: 6,755, 6,681
    and 6,747 under the default order and seeds 1 and 2), and an
    exhaustive verdict may too (ROADMAP, "Make the search key sound").
    Use different seeds to hunt bugs that hide from the default order
    (swarm-style).

    [target] restricts the hunt to one violation kind (e.g.
    ["inversion"]): terminals violating some other way are counted in
    [stats.off_target] and skipped.  An exhaustive [Clean] outcome under
    a target only certifies the absence of that kind.

    [recorder] is a flight recorder ({!Obs.Profile}) sampled on the
    deterministic state counter: each sample snapshots the live stats
    record plus the current frontier depth and visited-set occupancy,
    and a final forced sample closes the timeline.  Recording never
    perturbs the search (no verdict, trace or stat changes). *)

val search_parallel :
  ?budgets:budgets ->
  ?reduction:reduction ->
  ?use_visited:bool ->
  ?seed:int ->
  ?target:string ->
  ?recorder:Obs.Profile.t ->
  ?race_check:bool ->
  ?domains:int ->
  Config.t ->
  outcome
(** {!search} as a cooperative shared-frontier search: [domains] workers
    share one work-stealing frontier of DFS nodes, each a frozen parent
    state and the move that leaves it (pop
    newest locally for depth-first locality, steal oldest — the
    shallowest, biggest subtree — from a sibling) over one visited set
    sharded by the first word of the search key
    ({!Parallel.Pool.Visited}), so the domains explore one state space
    together instead of [K] overlapping copies.

    With [domains:1] it *is* {!search}, byte for byte.  With more, the
    frontier never reports a schedule of its own: a pass that found a
    violation, or was truncated by a budget, stops early, and the
    reported verdict and trace — hence the shrunk counterexample and its
    artifact digest — are re-derived by the canonical sequential
    {!search} under the same budgets, because the concrete schedule that
    first reaches a merged state is a property of arrival order, not of
    the space.  [seed] therefore only affects that re-derivation; the
    frontier itself always expands in the canonical move order.

    A clean pass that exhausted the reduced space with no budget cut is
    reported directly.  That is the sequential search's verdict only
    once the search key is sound: today the key can merge states whose
    futures differ, so which states a pass explores — and so, in
    principle, an exhaustive verdict — depends on the order in which
    workers reach them (see [seed] at {!search}; ROADMAP, "Make the
    search key sound").

    [stats] of a cooperative pass are summed across workers, except the
    shared-table facts: [peak_visited] is the number of *unique* states
    resident in the sharded visited set and [fp_collisions] its
    first-word collisions.  A re-derived outcome carries the
    sequential search's stats verbatim.

    With [recorder] and [domains > 1], each worker branches the recorder
    inside its own domain and returns samples by value; after the join
    the caller's recorder gains a ["domains"] section — mode
    ["frontier"], shard count, unique states, whether the outcome was
    re-derived, and per-worker summaries (states, transitions, replays,
    steals, utilization = share of aggregate states, samples) — plus one
    forced aggregate sample.

    [race_check] runs the cooperative pass twice, the second time with
    the steal-victim scan order inverted and no recorder, and raises
    [Parallel.Pool.Nondeterministic] unless both passes project to the
    same reported (verdict, trace, exhaustive).  At [domains:1] it
    re-runs the sequential search and insists on structural identity.
    Raises [Invalid_argument] if [domains < 1] or the config is
    invalid. *)

val shrink :
  ?log:(string -> unit) ->
  Config.t ->
  int list ->
  verdict ->
  int list * verdict * int
(** [shrink cfg codes verdict] minimizes a violating trace, given as
    move codes ({!Sys.code_of_move}): shortest forced prefix whose
    deterministic canonical completion still yields a violation of the
    same kind, then drops unneeded corruption moves.  Returns the codes
    of the complete concrete (strict-replayable) minimized execution,
    its verdict, and the number of re-executions. *)

(** {2 Counterexample artifacts} *)

val cex_schema : string
(** ["stabreg/mc-cex/v1"] *)

type cex = {
  config : Config.t;
  trace : Sys.move list;  (** complete, strict-replayable *)
  verdict : verdict;
  states : int;  (** states expanded when the violation was found *)
  digest : string;  (** terminal-state fingerprint *)
}

val cex_to_json : cex -> Obs.Json.t

val cex_of_json : Obs.Json.t -> (cex, string) result

val replay : cex -> (verdict, string) result
(** Strict bit-for-bit replay: every recorded move must fire, the
    terminal verdict must be structurally equal to the recorded one, and
    the terminal fingerprint must match the recorded digest.  The first
    move that does not fire (a link or menu item the deployment lacks
    included) gives [Error "move i (<move>) did not apply"]. *)

(** {2 Guided witness schedules} *)

val guide_schema : string
(** ["stabreg/mc-guide/v1"] *)

val guide_of_json : Obs.Json.t -> (Config.t * Sys.move list, string) result
(** Parse a guide file: a config plus a schedule of moves to force — a
    counterexample artifact without the outcome fields.  A full cex
    artifact is accepted too (its recorded outcome is ignored). *)

(** {2 One-call drivers} *)

type run = { outcome : outcome; cex : cex option; shrink_runs : int }

val check :
  ?budgets:budgets ->
  ?reduction:reduction ->
  ?use_visited:bool ->
  ?seed:int ->
  ?target:string ->
  ?recorder:Obs.Profile.t ->
  ?race_check:bool ->
  ?domains:int ->
  ?shrink_violations:bool ->
  ?log:(string -> unit) ->
  Config.t ->
  run
(** {!search_parallel} (sequential when [domains] is omitted or [1]); on
    a violation, {!shrink} it (unless disabled) and package the result as
    a replayable {!cex}.  The returned outcome's verdict is the (possibly
    shrunk) final verdict. *)

val guided :
  ?shrink_violations:bool ->
  ?log:(string -> unit) ->
  Config.t ->
  Sys.move list ->
  run
(** Guided witness checking (the moral equivalent of simulating a SPIN
    trail): execute the schedule as a forced prefix — moves that cannot
    fire, or that name a link or menu item the deployment lacks, are
    skipped — then drain deterministically to a terminal state
    and judge it.  A violation is shrunk and packaged exactly like
    {!check}'s.  Useful for interleavings a budgeted search cannot reach
    unaided: the author scripts only the critical deliveries.  Never
    claims exhaustiveness.  Raises [Invalid_argument] on an invalid
    config. *)
