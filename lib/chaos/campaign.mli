(** The chaos campaign engine.

    A campaign hammers one register construction with machine-generated
    adversity: from a single seed it derives per-trial fault schedules
    ({!generate}) mixing transient {!Sim.Fault} injections over weighted
    target prefixes, mobile Byzantine roams ({!Byzantine.Adversary.roam}),
    and link-chaos windows; runs each schedule against a live deployment
    ({!run_trial}); checks the register condition segment by segment
    between quiescence points; and on violation delta-debugs the schedule
    down to a minimal counterexample ({!shrink}) packaged as a
    self-contained, replayable JSON artifact ({!repro}).

    Everything is deterministic in the seed: the same campaign seed yields
    identical schedules, histories and verdicts, and a repro artifact
    re-executes to the verdict it records. *)

type family = Oracles.Stabilization.family = Regular | Atomic | Mwmr

type medium = Fifo | Lossy
(** [Fifo] is {!Registers.Net.Reliable_fifo}; [Lossy] is the
    [Stabilizing] medium at {!lossy_base} rates — link windows only exist
    there (under [Fifo] links are reliable by assumption). *)

val lossy_base : float * float
(** Base (loss, dup) of the [Lossy] medium, restored when windows close. *)

type config = {
  family : family;
  n : int;
  f : int;  (** the declared resilience parameter [t] *)
  medium : medium;
  initial : (int * Strategy.t) list;
      (** slots compromised before the run starts; exceeding [f] (e.g.
          [2f+1] colluders) deliberately breaks the resilience assumption *)
  writes : int;
  reads : int;  (** per-process op counts for the workload jobs *)
  read_budget : int;  (** inquiry-iteration budget per read *)
  gap_hi : int;  (** inter-operation think time is uniform in [0, gap_hi] *)
  horizon : int;  (** schedule events land in [1, horizon] *)
  injections : int;  (** transient-fault injections per schedule *)
  roams : int;  (** mobile-adversary sweeps per schedule *)
  roam_max : int;  (** slots per roam (clamped to [f] at generation) *)
  windows : int;  (** link-chaos windows per schedule (Lossy only) *)
  window_max : int;  (** maximum window duration, in ticks *)
  crashes : int;  (** crash events per schedule *)
  crash_down : int;
      (** maximum crash-recovery down window; most generated crashes
          recover within it, the rest are crash-stop *)
}

val default_config : family:family -> config
(** [n = 9], [f = 1], [Fifo], one initial garbage compromise, 60 writes /
    45 reads with budget 64, horizon 3000, 3 injections, 2 roams of 1
    slot, 2 windows of up to 400 ticks (inert under [Fifo]), no crashes
    ([crashes = 0], [crash_down = 250]). *)

type verdict = Oracles.Stabilization.verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }
      (** See {!Oracles.Stabilization.verdict}. *)

val verdict_kind : verdict -> string
(** {!Oracles.Stabilization.verdict_kind}. *)

val pp_verdict : Format.formatter -> verdict -> unit

type outcome = {
  verdict : verdict;
  ops : int;  (** history length *)
  duration : int;  (** final virtual time of the trial *)
  stuck : string list;  (** workload fibers that never finished *)
}

val generate : config -> seed:int -> Schedule.t
(** Derive the trial's randomized schedule.  Injection prefixes are drawn
    from a weighted distribution (all servers, one server, client state,
    link state, everything); roams assign up to [min roam_max f] slots
    with strategies from {!Strategy.default_pool}; windows get random
    placement, duration, spike rates, direction and optional target
    server. *)

val apply_event : Harness.Scenario.t -> Schedule.event -> unit
(** Arm one schedule event on a deployed scenario (before the engine
    runs): injections through the scenario's fault plan, crashes through
    {!Harness.Scenario.crash}, roams and windows through engine-scheduled
    callbacks. *)

val run_trial :
  ?on_scenario:(Harness.Scenario.t -> unit) ->
  config ->
  seed:int ->
  Schedule.t ->
  outcome
(** Deploy, apply the schedule, run the workload to quiescence, and judge
    the history with {!Oracles.Stabilization.check}, cut at the schedule's
    disturbance points shifted by a link-stabilization grace under
    [Lossy].  [on_scenario] runs right after deployment, before the
    engine starts — attach sinks there. *)

val shrink :
  ?log:(string -> unit) ->
  config ->
  seed:int ->
  Schedule.t ->
  verdict ->
  Schedule.t * int
(** Minimize a violating schedule while the verdict keeps its kind
    ({!Oracles.Stabilization.same_kind}): ddmin
    (delta debugging) over the event list, then a halving pass over
    window durations, then dropping individual roam assignments.  Returns
    the minimal schedule and how many re-executions it took. *)

type repro = {
  seed : int;
  config : config;
  schedule : Schedule.t;
  verdict : verdict;
}
(** A self-contained counterexample: replaying [schedule] at [seed] under
    [config] re-triggers [verdict]. *)

val repro_schema : string
(** ["stabreg/chaos-repro/v1"]. *)

val repro_to_json : repro -> Obs.Json.t

val repro_of_json : Obs.Json.t -> (repro, string) result

val replay : ?on_scenario:(Harness.Scenario.t -> unit) -> repro -> outcome
(** Re-execute a repro artifact deterministically. *)

type trial = {
  index : int;
  trial_seed : int;
  events : int;  (** generated schedule size *)
  outcome : outcome;
  repro : repro option;  (** shrunk counterexample, on violation *)
  shrink_runs : int;
}

type result = { config : config; seed : int; trials : trial list }

val violations : result -> trial list

val run :
  ?on_scenario:(trial:int -> Harness.Scenario.t -> unit) ->
  ?log:(string -> unit) ->
  ?shrink_violations:bool ->
  ?recorder:Obs.Profile.t ->
  ?race_check:bool ->
  ?race_fraction:float ->
  ?domains:int ->
  config ->
  seed:int ->
  trials:int ->
  result
(** Run a whole campaign: per trial, derive a seed and schedule, execute,
    and shrink any violation into a repro ([shrink_violations] defaults to
    [true]).  [on_scenario] fires for the campaign trials (not for shrink
    re-executions).  [log] receives one progress line per trial and per
    shrink pass.

    [domains] (default 1) fans the trials out over that many domains via
    {!Parallel.Pool}.  Trials are independent and each is deterministic
    in its own derived seed, so the result — trial order, outcomes,
    repros — is identical for every [domains] value; only wall-clock
    changes.  With [domains > 1], [log] lines are buffered per trial and
    replayed in trial order after all trials complete, and [on_scenario]
    runs on whichever domain executes the trial — trial 0 always runs on
    the calling domain (where drivers attach their sinks).

    [recorder] is a flight recorder ({!Obs.Profile}) ticked on completed
    trials: each sample snapshots cumulative trials, violations, injected
    events and shrink re-executions, closed by a final forced sample.
    Trials are noted strictly in index order on the calling domain (the
    parallel path notes them in its post-join fold), so the sample
    timeline is byte-stable regardless of [domains]; with [domains > 1]
    the recorder also gains a ["domains"] section reconstructing the
    round-robin per-domain split (trials, events, violations).
    Recording never perturbs outcomes or repros.

    [race_check] routes the fan-out through
    {!Parallel.Pool.map_checked} (forcing the buffered-log pool path
    even at [domains:1]): every trial runs twice — the second pass with
    inverted scheduling order and without re-attaching [on_scenario] —
    and any difference in a trial's outcome, repro or buffered log
    bytes raises [Parallel.Pool.Nondeterministic].  [race_fraction]
    (default [1.0]) bounds the second pass to a deterministic
    seed-derived subset of the trials — see
    {!Parallel.Pool.map_checked}'s [check_fraction]; at [1.0] every
    trial is re-checked (the historical behavior).  Raises
    [Invalid_argument] if [race_fraction] is outside [0,1]. *)
