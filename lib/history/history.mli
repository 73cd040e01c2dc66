(** Operation histories.

    Experiments record every operation's invocation/response interval and
    value; the checkers in {!Regularity} and {!Atomicity} then decide
    whether the history satisfies the register specifications of §2.2
    after a stabilization cutoff.

    Histories rely on the workload discipline that {e written values are
    pairwise distinct} (the generators guarantee it), which lets a read be
    mapped back to the write that produced its value — the standard device
    for checking register conditions on concrete executions. *)

type kind = Write | Read

type op = {
  proc : string;  (** e.g. ["writer"], ["reader"], ["p2"] *)
  kind : kind;
  inv : Sim.Vtime.t;  (** invocation instant *)
  resp : Sim.Vtime.t;  (** response instant *)
  value : Registers.Value.t;  (** written, or returned ([Bot] if the read
                                   gave up under a finite budget) *)
  ok : bool;  (** [false] for a read whose iteration budget ran out *)
  ts : (Registers.Epoch.t * int * int) option;
      (** (epoch, seq, writer-id) timestamp, for MWMR histories *)
}

type t

val create : unit -> t

val copy : t -> t
(** An independent history holding the same operations. *)

val record :
  t ->
  proc:string ->
  kind:kind ->
  inv:Sim.Vtime.t ->
  resp:Sim.Vtime.t ->
  ?ts:Registers.Epoch.t * int * int ->
  ?ok:bool ->
  Registers.Value.t ->
  unit

val ops : t -> op list
(** All operations, sorted by invocation time (ties by recording order). *)

val writes : t -> op list

val reads : t -> op list

val split : t -> op list * op list
(** [(writes t, reads t)], from one sort. *)

val length : t -> int

val overlap : op -> op -> bool
(** Whether the two operations' [\[inv, resp\]] intervals intersect — the
    paper's "concurrent". *)

val pp_op : Format.formatter -> op -> unit
