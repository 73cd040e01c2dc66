(** A register deployment under model-checker control, as an explicit
    state.

    One {!t} is one execution-in-progress of the configured system: the
    servers' automata ({!Registers.Server.handle}), per-link FIFO queues,
    client mailboxes, the clients' protocol state with their suspended
    round automata ({!Registers.Collect.step}), the history and a clock.
    Nothing fires by itself — the explorer repeatedly asks for the
    codes of the enabled moves ({!enabled_codes}) and fires its choice
    ({!apply}) — and no simulator engine, network or fiber takes part.
    A move is fired one way, by its code: a {!move} is the form a code
    takes in artifacts and traces ({!code_of_move}, {!move_of_code}).  All residual nondeterminism is pinned
    (deterministic Byzantine replies, concrete corruption payloads), so an
    execution is exactly its move sequence: replaying the same moves from
    a fresh {!create} reproduces the same global state bit for bit, and
    {!clone} copies a state so both copies continue alike.

    Soundness of the move menu w.r.t. the paper's model:
    - per-link FIFO: a [Deliver] always fires the oldest pending delivery
      of its link, never an overtaking one;
    - synchronized ss-broadcast delivery: a broadcast counts actual
      deliveries at correct servers, as {!Registers.Net.ss_broadcast}
      does, so the (n-2t)-th-correct-delivery resume point is respected
      under any interleaving the explorer picks;
    - transient corruption: a [Corrupt] move applies one menu item
      (at most once per execution), modelling a transient fault striking
      between any two events. *)

type move =
  | Deliver of { client : int; server : int; to_server : bool }
      (** fire the FIFO-head delivery of one link of client port
          [client]: towards server [server] when [to_server], from it
          otherwise *)
  | Tick of int
      (** fire the [i]-th pending unlabeled event: the settlement of a
          broadcast whose delivery target is zero (only degenerate
          configurations, [n <= 2t] or no correct server, have one) *)
  | Corrupt of int  (** fire menu item [i] *)
(** Plain data, the form a move code takes in a trace: label strings
    exist only in {!link_label}, hence in {!move_to_string} and the
    artifact codec ({!Checker}). *)

val link_label : client:int -> server:int -> to_server:bool -> string
(** The label of a delivery's link, as the engine schedules it and as
    artifacts record a [Deliver]: ["link:c100->s3"] towards a server,
    ["link:s3->c100"] from one. *)

val move_to_string : move -> string
(** ["deliver link:c100->s3"], ["tick 0"], ["corrupt 1"]. *)

val move_equal : move -> move -> bool

val compare_move : move -> move -> int
(** The deterministic move order behind DFS child order (so every stats
    counter) and the violation reported first — the order
    {!enabled_codes} writes codes in: [Deliver]s, then [Tick]s, then
    [Corrupt]s.  Deliveries sort as [String.compare] of their
    {!link_label}s, computed without rendering: client-to-server first,
    then the label's first id and its second, as decimal strings (["s10"]
    before ["s2"]). *)

(** {2 Move codes}

    A move is fired as an int, its code.  A delivery's code is its raw link,
    [(client index × n + server) × 2], plus 1 from the server: the codes
    [0 .. links - 1] ({!links}).  Menu item [i] is [links + i], and
    pending event [i] is [links + menu length + i].  A code means the
    same move in every state of one configuration. *)

val links : Config.t -> int
(** The number of links of a deployment: clients × servers × 2
    directions, the width in bits of a sleep set. *)

val code_of_move : Config.t -> move -> int
(** The code of a move, or [-1] for a delivery on a link the deployment
    lacks, a menu item it lacks or a negative index. *)

val move_of_code : Config.t -> int -> move
(** The move a code names: [code_of_move cfg (move_of_code cfg c) = c]
    for every [c >= 0].  Raises [Invalid_argument] on a negative code. *)

val independent : Config.t -> int -> int -> bool
(** [independent cfg a b]: the conservative commutation relation of the
    sleep-set reduction, on two move codes.  [true] exactly for two
    deliveries whose clients differ and whose servers differ (links with
    disjoint endpoints); corruptions and unlabeled events are dependent
    with everything.  A search tests it once per pair of links, into the
    independence masks its child sleep sets are filtered with
    ({!Checker}). *)

val rename_link : Config.t -> (int -> int) -> int -> int
(** [rename_link cfg ren l]: raw link [l] with its server renamed
    through [ren] — how a search puts a raw sleep bit into the
    canonical coordinates of {!search_key}, and names a delivery's
    automorphism class through its [rep]. *)

type t

val create : Config.t -> t
(** Build the deployment and start the clients (each runs to its first
    broadcast).  Deterministic: two [create]s of the same config are
    indistinguishable. *)

val clone : t -> t
(** An independent copy: applying moves to either leaves the other as it
    was.  The copy is made on write.  [clone] copies the state record,
    the protocol state and the history, and marks every other section
    shared by both states: each server's automaton, each client's record
    with a collecting round's intake, the two link arrays, the server and
    client arrays themselves, and the search key's cached hash words.
    Whichever state writes a shared section first copies it and keeps the
    copy, so a move pays only for the sections it writes.

    [clone] writes its argument only to mark it shared, and not at all
    when every section already is, as in a fresh clone.  A frontier
    worker's frozen parent is such a clone, and nothing walks it, so the
    workers that clone it concurrently only read it.  Keying a state
    writes its hash cache, so that parent is keyed before it is frozen
    and never after. *)

val config : t -> Config.t

val history : t -> Oracles.History.t

val corrupt_times : t -> int list
(** Instants at which corruption moves fired so far, ascending. *)

type codes = { mutable buf : int array; mutable len : int }
(** A buffer of move codes: [buf.(0)], ..., [buf.(len - 1)]. *)

val codes : unit -> codes
(** An empty buffer; {!enabled_codes} grows it as it needs. *)

val enabled_codes : t -> codes -> unit
(** Write the codes of the current choice menu into the buffer, in
    {!compare_move} order: one delivery per link with pending traffic,
    then the pending events, then the unused menu items (only while some
    client is still running).  The walk itself yields that order —
    requests by client, then server ids as decimal strings, then replies
    by server id, then client — so nothing is sorted and no move is
    built.  [len] is 0 iff the execution is terminal. *)

val terminal : t -> bool
(** Whether {!enabled_codes} would write no code, without building the
    menu: no link has traffic in flight, no unlabeled event is pending,
    and no menu item can fire. *)

val apply : ?strict:bool -> t -> int -> bool
(** Fire the move with code [c]: advance the clock one tick, then
    execute it (and whatever protocol code it resumes, up to the client's
    next broadcast).  Returns [true] on success.  A delivery fires by its
    client's index, with no lookup by id.  An inapplicable move (nothing
    in flight on the link, a spent menu item, no such pending event, a
    negative code) changes nothing: it raises [Invalid_argument]
    ["Mc.Sys.apply: <why> (<move>)"] under [strict] (the default) and
    returns [false] otherwise (for schedules read from artifacts, where a
    move may name a link the deployment lacks, and shrink candidates,
    where a dropped prefix may invalidate later moves).  A menu item is
    inapplicable once no client is running, as {!enabled_codes} never
    offers one then. *)

val stuck : t -> string list
(** Names of clients that have not finished their workload — non-empty
    at a terminal state means the execution deadlocked. *)

val fingerprint : t -> string
(** Canonical digest of the global state: server instances, Byzantine
    assignment, per-link in-flight payloads, mailbox contents, port round
    tags, client persistent bookkeeping, remaining corruption menu, client
    progress, and the recorded history with instants canonicalized to
    their rank (order type) so order-isomorphic pasts merge.  Server
    slots not named by any corruption-menu item are additionally
    canonicalized up to permutation (symmetry reduction).

    Equal fingerprints do not guarantee equal futures yet.  The digest
    leaves out each client's wait (what a collecting round has filed,
    what a confirming one still awaits), and [Quorum.find_in] branches
    on a server's index, so two states with one fingerprint can go on to
    different verdicts.  A search that merges states by it can therefore
    explore a different set of states under a different move order.
    ROADMAP's first item ("Make the search key sound") holds the witness
    and the fix. *)

val fingerprint_ex : t -> string * (int -> int) * (int -> int)
(** [(digest, ren, rep)]: {!fingerprint} plus the canonical server
    renaming its text uses ([ren]: original slot -> canonical slot, the
    anonymous slots ordered by their rendered blocks) and the
    automorphism-class representative map ([rep]: original slot -> least
    interchangeable slot).  The digest is the MD5 of the text the state's
    walks write into a text sink, the one digest artifacts record (cex
    terminals, [--replay], the golden walks, shrink); the search never
    computes it ({!search_key}).  Every call renders the whole text
    afresh and writes nothing into the state. *)

type scratch
(** The buffers keying a state writes: its canonical order, renaming and
    representative map, and the hashed reference keys of tied slots.  A
    search makes one (a frontier search one per worker) and keys every
    state it visits through it. *)

val scratch : Config.t -> scratch
(** Buffers for states of this configuration.  Keying a state never
    allocates them again. *)

val search_key : scratch -> t -> int * int * (int -> int) * (int -> int)
(** [search_key sc t] is [(k1, k2, ren, rep)]: the key the checker's
    visited set stores, with its own canonical renaming and the
    representative map.  The key runs the very walks {!fingerprint_ex}
    renders — server instances and link contents, client ports, protocol
    state, spent menu, progress and the ranked history — into a word
    sink: two 63-bit lanes of a non-cryptographic multiply-xorshift
    hash.  Nothing is rendered and no MD5 runs.  Where the text leans on punctuation, the walk feeds
    the key a list length or a constructor tag instead, so two states
    have equal keys iff they have equal fingerprints, up to a
    2{^-126}-scale hash collision.  A mailbox hashes as the sum of its
    acks' hashes, which ignores their order, unless the menu can corrupt
    a round tag.

    [ren] orders the anonymous slots by their blocks' hash words, with
    ties between equal blocks broken by hashed reference keys (the acks
    that name the slot), so it need not be {!fingerprint_ex}'s; it is
    consistent across all states with equal keys, and the checker
    compares sleep sets only within it.  Two unequal blocks can only tie
    through a hash collision, the risk the key already takes.  [rep] is
    {!fingerprint_ex}'s: the least slot of each automorphism class.  The
    checker renames sleep sets through [ren] and may restrict branching
    to one delivery per link under [rep] (successors of class members
    are isomorphic), both through {!rename_link}.

    Each server block's and the history's two hash words are cached in
    the state and recomputed only once a move changed what they hash (a
    delivery its server's block, a broadcast every block, a server
    corruption its server's block, a recorded operation or a corruption
    the history).  Only this function writes the caches, so a state other
    domains clone concurrently is keyed before it is frozen and never
    after.

    [ren] and [rep] read [sc]: they describe [t] until [sc] keys another
    state. *)
