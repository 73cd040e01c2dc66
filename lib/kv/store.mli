(** A replicated, self-stabilizing, Byzantine-tolerant key/value store —
    the downstream-facing layer over the paper's MWMR registers.

    Each key of a {e fixed schema} is backed by one MWMR atomic register
    (so each key costs [m * m] register instances at the servers, where
    [m] is the number of store clients).  All clients may read and write
    every key; per-key operations are atomic, tolerate up to [t] Byzantine
    servers, and self-stabilize after transient faults once the key is
    written again.

    The schema (the ordered key list) is configuration, agreed out of
    band, exactly like the register-instance numbering itself: two clients
    with different schemas would talk past each other, which is a
    deployment error, not a fault the paper's model covers. *)

type config = {
  keys : string list;  (** the fixed schema, in canonical order *)
  clients : int;  (** number of store clients ([m] writers/readers) *)
}
(** Key [i] of the schema is backed by register instances
    [i*m*m .. (i+1)*m*m - 1], under {!Registers.Mwmr.default_config}'s
    timestamp bound of [2^61]. *)

val config : keys:string list -> clients:int -> config
(** Standard configuration; raises [Invalid_argument] on an empty or
    duplicated key list. *)

type t
(** One client's handle onto the store. *)

val client : net:Registers.Net.t -> cfg:config -> id:int -> client_id:int -> t
(** The handle for store client [id] (0-based, [< cfg.clients]),
    communicating as network client [client_id]: one port, and per key
    the {!Registers.Mwmr.layout} and {!Registers.Mwmr.state} of process
    [id] of that key's register. *)

val set_o : t -> key:string -> Registers.Value.t -> unit Registers.Outcome.t
(** Atomically write one key — one {!Registers.Collect.run} of the key's
    {!Registers.Mwmr.write_op} under a ["kv"] span — reporting {e how}
    the operation finished
    (fully serviced, degraded, or timed out — see {!Registers.Outcome});
    under {!Registers.Params.paper_wait} the wait is unbounded and an
    asynchronous deployment always returns [Ok].  Must run inside a fiber.
    Raises [Not_found] if [key] is not in the schema. *)

val get_o : t -> key:string -> Registers.Value.t Registers.Outcome.t
(** Atomically read one key ([Ok Bot] if never written) — one
    {!Registers.Collect.run} of the key's {!Registers.Mwmr.read_op} under
    a ["kv"] span — reporting how the operation finished.  Must run inside a fiber.  Raises
    [Not_found] if [key] is not in the schema. *)

val keys : t -> string list

val snapshot : t -> (string * Registers.Value.t) list
(** Read every key in schema order (not an atomic multi-key snapshot:
    each key is read atomically, one after the other); a key whose read
    did not return [Ok] shows as [Bot]. *)
