(** Adversarially scheduled read starvation — the liveness side of the
    resilience bounds (Theorems 1 and 2), constructed rather than hoped
    for.

    Under random schedules the Fig. 2 register essentially never starves
    even well below [n >= 8t+1] (the helping path is extremely robust);
    the interesting question is what a worst-case scheduler plus [t]
    Byzantine splitters can do.  This module scripts that worst case: a
    write kept in flight splits the sampled correct servers' [last_val]
    between old and new value as evenly as possible, [t] Byzantine servers
    inject pairwise-distinct junk, and (asynchronous case) the remaining
    [t] correct servers' acknowledgments are delayed out of the reader's
    [(n-t)]-acknowledgment sample.  The schedule is a {!Scenario} whose
    [link_delay] scripts the writer's (client 100) request links and the
    reader's (client 101) acknowledgment links by their endpoints.

    The reader's per-round quorum then fails exactly when
    [ceil((n-2t)/2) < 2t+1] — i.e. [n <= 6t] — in the asynchronous model,
    and when [ceil((n-t)/2) < t+1] — i.e. [n <= 3t] — in the synchronous
    model, which makes the paper's synchronous bound [t < n/3] empirically
    tight while its asynchronous bound [t < n/8] has slack against this
    particular adversary (the 8t+1 arithmetic also covers the
    helping-refresh interplay the proof of Lemma 2 needs). *)

type outcome = {
  starved : bool;  (** every read round in the budget failed *)
  rounds_used : int;
  returned : Registers.Value.t option;  (** the value, when not starved *)
  params : Registers.Params.t;
  metrics : Obs.Metrics.t;  (** the run's metrics, for run reports *)
}

val run :
  n:int ->
  f:int ->
  ?sync:bool ->
  ?budget:int ->
  ?instrument:(Sim.Engine.t -> unit) ->
  unit ->
  outcome
(** Run the scripted schedule on a fresh deployment ([budget] read rounds,
    default 6).  [sync] (default false) uses the Fig. 5 thresholds with
    timeout-based waits.  [instrument] is called on the scenario's
    engine before the first [f] servers turn Byzantine — the hook for
    attaching event sinks.  The run stops at tick [Script.far / 2],
    well past the reader's budget, since the asynchronous schedule
    keeps a write pending essentially forever.  Requires
    [n > 2f >= 2]. *)

val predicted_starvation : n:int -> f:int -> sync:bool -> bool
(** The closed-form prediction above, for cross-checking experiment
    tables. *)
