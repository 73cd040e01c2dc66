(** The sharded storage tier: S independent register-group deployments
    behind a consistent-hash {!Ring}, driven by an open-loop Zipfian
    workload ({!Workload.Openloop}) through a batching router.

    Each shard is one {!Harness.Scenario} — its own engine, network,
    adversary and fault plan — running a {!Kv.Store} deployment over the
    keys the ring assigns it (n servers, f tolerated Byzantine).  Per
    shard, a dispatcher fiber replays the shard's slice of the arrival
    schedule and a writer/reader router pair drains the queues in
    batches, coalescing writes last-write-wins per key and folding
    queued readers of a key into one register read — under Zipfian skew
    this amortizes a whole queue of logical ops over one register round
    trip, which is how the tier beats the one-op-at-a-time kv baseline
    on a single core.

    Shards never exchange messages.  A {!chaos} plan targets exactly
    one shard with transient corruption and crash-recovery; the oracle
    then checks every per-key history against the single-writer regular
    condition — non-target shards from the start, the target from the
    completion of its first post-disturbance write — and the report's
    [isolated] bit asserts that every non-target shard stayed clean.

    Reports are deterministic in (config, seed) at any [~domains] and
    replay bit-for-bit; that is what the committed
    [stabreg/shard-report/v1] artifacts pin. *)

type crash = { at : int; server : int; down_for : int option }
(** One crash event on the target shard; [down_for = Some d] is
    crash-recovery over arbitrary state after [d] ticks, [None] is
    crash-stop. *)

type chaos = {
  target : int;  (** the single shard the faults hit *)
  injections : int list;  (** transient-corruption instants (full state) *)
  crashes : crash list;
}

type config = {
  shards : int;
  vnodes : int;  (** ring points per shard *)
  n : int;  (** servers per shard *)
  f : int;  (** tolerated Byzantine servers per shard *)
  retry : bool;
      (** {!Registers.Params.default_retry} if set, else
          {!Registers.Params.paper_wait} *)
  workload : Workload.Openloop.config;
  chaos : chaos option;
}

val default_config : config
(** 4 shards x 16 vnodes at n = 9, f = 1, retry on, default workload,
    no chaos. *)

val validate : config -> (unit, string) result

val key_name : int -> string
(** The schema name of key rank [k] (["key-007"] style). *)

type tally = Registers.Outcome.tally = {
  ok : int;
  degraded : int;
  timed_out : int;
}
(** Typed-outcome counts over {e logical} ops (each op in a coalesced
    batch inherits its register op's outcome). *)

type latency = {
  count : int;
  mean : float;
  p50 : float;
  p99 : float;
  p999 : float;
  max : float;
}
(** Per-logical-op latency in virtual ticks, arrival instant to register
    response — queueing included, as an open-loop client would see. *)

type shard_report = {
  shard : int;
  keys : int;
  ops : int;
  writes : tally;
  reads : tally;
  register_writes : int;  (** register ops actually issued (post-coalescing) *)
  register_reads : int;
  write_batches : int;
  read_batches : int;
  latency : latency;
  duration : int;
  stuck : string list;
  reads_checked : int;
  violations : int;
  liveness : int;
  clean : bool;
}

type report = {
  seed : int;
  config : config;
  key_owners : int list;  (** ring placement of each key rank *)
  shards : shard_report list;
  ops : int;
  writes : tally;
  reads : tally;
  duration : int;  (** max over shards, in ticks *)
  isolated : bool;  (** every non-target shard's history is clean *)
  clean : bool;
}

val run :
  ?on_scenario:(Harness.Scenario.t -> unit) ->
  ?domains:int ->
  config ->
  seed:int ->
  report
(** Execute the tier.  [on_scenario] fires for shard 0 only, which
    always runs on the calling domain — attach caller-local sinks
    there.  [domains] fans shards out over OS domains; the report is
    identical for every value.  Per-op outcome kinds land in each
    shard's metrics as ["shard.write.<kind>"] / ["shard.read.<kind>"]
    counters and latencies in the ["shard.op_latency"] histogram.
    Raises [Invalid_argument] on an invalid config. *)

val schema : string
(** ["stabreg/shard-report/v1"]. *)

val to_json : report -> Obs.Json.t

val of_json : Obs.Json.t -> (report, string) result

val replay :
  ?on_scenario:(Harness.Scenario.t -> unit) ->
  ?domains:int ->
  report ->
  report
(** Re-execute a report's config and seed from scratch. *)

val matches : report -> report -> bool
(** Bit-identical reproduction check. *)

val last_disturbance : chaos -> int
(** The instant after which the target shard must re-stabilize: the
    last corruption, or the last crash's recovery edge. *)

val pp_shard : Format.formatter -> shard_report -> unit
