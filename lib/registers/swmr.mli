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

val write :
  ?parent:Obs.Trace_ctx.span -> writer -> Value.t -> unit Outcome.t
(** swmr_write(v): prac_at_write the value to every reader's copy, in
    reader-index order.  Must run inside a fiber.  The outcome is the
    worst over the per-reader copies (a write that starved on any copy is
    degraded — that reader may not see it). *)

val read :
  ?parent:Obs.Trace_ctx.span ->
  ?max_iterations:int ->
  reader ->
  Value.t Outcome.t
(** swmr_read() by this reader: prac_at_read its own copy. *)

val copies : writer -> Swsr_atomic.writer array
(** The underlying per-reader SWSR writers (inspection/fault targets). *)

val sr_reader : reader -> Swsr_atomic.reader
(** The underlying SWSR reader (inspection/fault target). *)
