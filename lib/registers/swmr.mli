(** Stabilizing SWMR atomic register from SWSR atomic registers (§5.1).

    The classical composition: the writer keeps one SWSR atomic register
    per reader and writes every value to all of them (the servers maintain
    the per-reader variables — here, one register {e instance} per reader);
    reader [j] reads its own copy.  Register instances [base_inst + j] for
    [j] in [0 .. readers-1] are used. *)

type writer

type reader

val writer :
  net:Net.t ->
  client_id:int ->
  base_inst:int ->
  readers:int ->
  ?modulus:int ->
  unit ->
  writer

val reader :
  net:Net.t ->
  client_id:int ->
  base_inst:int ->
  reader_index:int ->
  ?modulus:int ->
  unit ->
  reader

val write : writer -> Value.t -> unit Outcome.t
(** swmr_write(v): prac_at_write the value to every reader's copy, in
    reader-index order.  Must run inside a fiber.  The outcome is the
    worst over the per-reader copies (a write that starved on any copy is
    degraded — that reader may not see it). *)

val read : ?max_iterations:int -> reader -> Value.t Outcome.t
(** swmr_read() by this reader: prac_at_read its own copy. *)

val copies : writer -> Swsr_atomic.wstate array
(** The writer's state for each per-reader SWSR copy (inspection/fault
    targets). *)

(** {2 As round automata} *)

type layout = { probe : Instr.probe option; sites : Collect.site array }
(** The composite's span probe and the sites of the SWSR copies it runs:
    one per reader for a writer, the reader's own for a reader. *)

val layout :
  ?engine:Sim.Engine.t -> params:Params.t -> client_id:int ->
  Obs.Event.op_kind -> int array -> layout
(** The layout over the given register instances; probes only with an
    [engine]. *)

val write_op :
  layout -> modulus:int -> (int -> 'c -> Swsr_atomic.wstate) -> Value.t ->
  ('c, unit Outcome.t, 'r) Collect.op
(** {!write}; the getter finds copy [j]'s state. *)

val read_op :
  ?max_iterations:int -> layout -> modulus:int -> ('c -> Swsr_atomic.rstate) ->
  ('c, Value.t Outcome.t, 'r) Collect.op
