(** Crash-recovery bursts and the stabilization-time oracle.

    A recovery run crashes [crashed] rotating server slots every [gap]
    ticks for [bursts] bursts; each crashed slot rejoins after [down_for]
    ticks over arbitrary state — recovery is a transient fault by
    construction, exactly what the paper's registers must stabilize from.
    A writer/reader pair operates throughout via the typed-outcome API
    (so operations degrade or time out instead of hanging), and the
    oracle measures, per burst, the virtual time from the recovery
    instant to the first read the {!Oracles.Regularity} checker certifies
    on that burst's segment ({!Oracles.Stabilization.time}).

    Everything is deterministic in the seed: the same config and seed
    reproduce the report bit-for-bit, which is what the committed
    [stabreg/recovery/v1] artifacts assert under [--replay]. *)

type config = {
  n : int;
  f : int;
  bursts : int;  (** crash-recovery bursts *)
  crashed : int;  (** slots crashed per burst (rotating) *)
  down_for : int;  (** down window per crash, in ticks *)
  first_at : int;  (** first burst instant *)
  gap : int;  (** burst spacing *)
  writes : int;
  reads : int;  (** op counts for the workload pair *)
  read_budget : int;  (** inquiry-iteration budget per read *)
  gap_hi : int;  (** think time uniform in [0, gap_hi] *)
  retry : bool;
      (** {!Registers.Params.default_retry} if set, else
          {!Registers.Params.paper_wait} *)
}

val default_config : config
(** [n = 9], [f = 1], 3 bursts of 2 slots down for 120 ticks every 700,
    60 writes / 70 reads, retry on. *)

val schedule : config -> Schedule.t
(** The fully concrete crash events the config denotes (all
    crash-recovery, rotating slots). *)

type burst_report = {
  burst : int;
  crash_at : int;
  recovery_at : int;
  stab_time : int option;
      (** vtime from recovery to the first certified-correct read of the
          burst's segment; [None] when none landed before the next
          burst *)
}

type report = {
  seed : int;
  config : config;
  bursts : burst_report list;
  write_ops : Registers.Outcome.tally;
  read_ops : Registers.Outcome.tally;
  duration : int;
  stuck : string list;  (** watchdog: fibers that never finished *)
  converged : bool;  (** the last burst stabilized *)
}

val run :
  ?on_scenario:(Harness.Scenario.t -> unit) -> config -> seed:int -> report
(** Execute one recovery run.  Per-burst stabilization times are also
    observed into the scenario metrics histogram ["recovery.stab_time"],
    and per-op outcome kinds into ["recovery.read.<kind>"] /
    ["recovery.write.<kind>"] counters. *)

val schema : string
(** ["stabreg/recovery/v1"]. *)

val to_json : report -> Obs.Json.t

val of_json : Obs.Json.t -> (report, string) result

val replay : ?on_scenario:(Harness.Scenario.t -> unit) -> report -> report
(** Re-execute a report's config and seed from scratch. *)

val matches : report -> report -> bool
(** Bit-identical reproduction check between a committed report and its
    replay. *)

val pp_burst : Format.formatter -> burst_report -> unit
