(** Stabilizing Byzantine-tolerant SWSR {e regular} register — Figure 2
    (asynchronous, [t < n/8]) and Figure 5 (synchronous, [t < n/3]).

    The two algorithms differ only in their wait statements and thresholds,
    which {!Params} captures; the client code below is written once against
    those thresholds, exactly as the paper presents Fig. 5 as "a simple
    adaptation" of Fig. 2.

    The register stabilizes after the first write invoked after transient
    faults stop: reads issued before that may return arbitrary values
    (eventual regularity). *)

type writer

type reader

val writer : net:Net.t -> client_id:int -> inst:int -> writer
(** The (unique) writer endpoint for register instance [inst]. *)

val reader : net:Net.t -> client_id:int -> inst:int -> reader
(** The (unique) reader endpoint for register instance [inst]. *)

val write : writer -> Value.t -> unit Outcome.t
(** REG.write(v), lines 01–06.  Must run inside a fiber.  Under
    {!Params.paper_wait} an asynchronous write always returns [Ok]; a
    synchronous one is [Ok] once [t+1] servers acknowledged within the
    round trip.  Under a bounded policy it retries with backoff and
    reports [Degraded] / [Timed_out] instead of hanging. *)

val read : ?max_iterations:int -> reader -> Value.t Outcome.t
(** REG.read(), lines 07–18.  Must run inside a fiber.  Fails only if
    [max_iterations] (default unlimited) inquiry rounds all failed — the
    paper's loop is unbounded and provably terminates under the model
    assumptions; the bound exists so experiments can run the algorithm
    outside those assumptions without hanging — or, under a bounded
    policy, once its attempt budget of expired rounds is spent. *)

val write_op : Collect.site -> Value.t -> ('c, unit Outcome.t, 'r) Collect.op
(** {!write} as a round automaton. *)

val read_op :
  ?max_iterations:int -> Collect.site -> tally:('c -> Collect.tally) ->
  ('c, Value.t Outcome.t, 'r) Collect.op

val reader_iterations : reader -> int
(** Total inquiry-loop iterations executed by this reader so far (cost
    metric for experiment E5). *)

val help_returns : reader -> int
(** How many reads returned through the helping path (lines 14–15). *)

val writer_port : writer -> Net.client_port
(** The writer's communication port (fault-injection target). *)

val reader_port : reader -> Net.client_port
