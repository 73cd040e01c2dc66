(** The benchmark's workloads.  A workload's [setup] builds the inputs and
    deployment of one round from the seed and returns the round; the
    benchmark times the two separately.  Layers are observed from outside
    only: spans around calls into public functions, and the counters,
    reports and stats those functions return. *)

type round = {
  units : int;  (** units of work completed *)
  failed : int;  (** units that finished degraded, timed out or stuck *)
  errors : string list;  (** failed correctness checks; [[]] when correct *)
  layer : (string * float) list;
      (** per-layer observations, recorded only when tracing *)
}

type t = {
  name : string;
  default_size : int;
  setup : seed:int -> size:int -> spans:Spans.t option -> unit -> round;
}

module Kv_closed : sig
  type deployment

  val deploy : seed:int -> size:int -> deployment
  (** One n = 9, f = 1 scenario with the default retry policy, slot 0
      equivocating, and four closed-loop store clients of [size] ops each
      over 64 keys, 10% writes. *)

  val run : ?spans:Spans.t -> step:bool -> deployment -> round
  (** Run the clients to completion and check every per-key history.
      [step] drives the engine with [Sim.Engine.step] (counting events)
      instead of [Harness.Scenario.run]. *)

  val history_ops : deployment -> Oracles.History.op list list
  (** The per-key histories, in key order. *)

  val check_histories : Oracles.History.t array -> int * string list
  (** The regular-register gate: reads checked, and one error per key
      whose history is not clean. *)
end

val all : t list
(** [shard-zipf], [kv-closed], [chaos-lossy], [mc-n4-silent]; see
    [perfbench/README.md] for what one round of each runs. *)

val find : string -> t option
