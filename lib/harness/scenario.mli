(** Experiment wiring: engine + network + adversary + fault plan + history.

    A scenario owns one simulated deployment of the paper's system model:
    [n] server slots behind an adversary controller, FIFO links with
    sampled delays, a transient-fault injector with every piece of
    corruptible state registered, and an operation history fed by the
    workload jobs.  It schedules the deployment's server crashes
    ({!crash}); {!Workload.deploy} builds the clients and their jobs. *)

type t = {
  seed : int;
  engine : Sim.Engine.t;
  net : Registers.Net.t;
  fault : Sim.Fault.t;
  adversary : Byzantine.Adversary.t;
  history : Oracles.History.t;
}

val create :
  ?seed:int ->
  ?delay:int * int ->
  ?medium:Registers.Net.medium ->
  params:Registers.Params.t ->
  unit ->
  t
(** Build a deployment.  [delay] is the uniform per-link delay range
    (default [(1, 10)] in async mode; in sync mode the default upper bound
    is the mode's [max_delay], and a custom [delay] must respect it).
    Server state is registered with the fault injector under
    ["server.<i>"] — both as a corruptible state target and as a crashable
    process ({!crash}); client-side state is registered by the
    [register_*] helpers below. *)

val run : ?until:Sim.Vtime.t -> t -> unit
(** Drive the engine until quiescence (or [until]). *)

exception Deadlock of string
(** The engine quiesced while job fibers were still suspended — the
    message lists each wedged fiber with the suspension point it blocks on
    (e.g. ["Mailbox.collect"], ["Collect.backoff"]). *)

val stuck_jobs : (string * Sim.Fiber.handle) list -> string list
(** Human-readable descriptions of the fibers among [(name, handle)]
    pairs that did not finish: a still-running one as
    ["name (blocked on <label>)"] with its {!Sim.Fiber.blocked_on} label,
    one that raised as ["name (raised: <exn>)"]. *)

val run_jobs : t -> (string * (unit -> unit)) list -> string list
(** Spawn each named job as a fiber, in list order, run the engine to
    quiescence and return {!stuck_jobs} of the jobs, in that order. *)

val check_jobs : (string * Sim.Fiber.handle) list -> unit
(** Watchdog: re-raise the first failed job's exception, then raise
    {!Deadlock} if any job is still suspended.  Call after {!run} returns
    to turn a silent hang into a diagnosed error. *)

val now : t -> Sim.Vtime.t

val rng : t -> Sim.Rng.t

val split_rng : t -> Sim.Rng.t

val sleep : t -> Sim.Vtime.span -> unit
(** Suspend the calling fiber for a duration. *)

val crash : t -> at:int -> server:int -> down_for:int option -> unit
(** The one crash scheduler: server slot [server] crashes at tick [at]
    and, with [down_for = Some d], recovers [d] ticks later over arbitrary
    state; with [None] it stays down. *)

val register_port : t -> Registers.Net.client_port -> unit
(** Name a client port's transient faults for the fault injector:
    ["client.<id>.round"] ({!Registers.Net.corrupt_round}), then
    ["link.c<id>"] ({!Registers.Net.corrupt_links}). *)

val register_atomic_writer : t -> name:string -> Registers.Swsr_atomic.writer -> unit
(** Register the writer's persistent [wsn] under ["client.<name>.wsn"]. *)

val register_atomic_reader : t -> name:string -> Registers.Swsr_atomic.reader -> unit
(** Register the reader's persistent [(pwsn, pv)] under
    ["client.<name>.p"]. *)

val record :
  t ->
  proc:string ->
  kind:Oracles.History.kind ->
  ?ts:Registers.Epoch.t * int * int ->
  (unit -> Registers.Value.t option) ->
  Registers.Value.t option
(** Time an operation (must run inside a fiber) and append it to the
    history; a [None] result is recorded as a failed ([ok = false]) read of
    [Bot].  Returns the operation's result. *)

val metrics : t -> Obs.Metrics.t
(** The engine's metrics registry (counters, histograms). *)

val hub : t -> Obs.Hub.t
(** The engine's typed-event hub; attach sinks here to capture the
    deployment's event stream. *)

val messages_sent : t -> int
(** Engine-wide delivered-message count (trace counter ["net.msgs"]). *)

val broadcasts : t -> int
