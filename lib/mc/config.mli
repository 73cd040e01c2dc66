(** Model-checking configurations: a small, fully deterministic instance of
    one register family plus a bounded menu of transient-corruption choices.

    Everything nondeterministic in a chaos campaign (sampled delays,
    RNG-driven fault payloads, randomized Byzantine replies) is pinned to a
    deterministic choice here, so that the explorer's only sources of
    branching are {e which pending event fires next} and {e which menu item
    (if any) strikes} — the nondeterminism the paper's theorems quantify
    over. *)

type family = Oracles.Stabilization.family = Regular | Atomic | Mwmr

type byz_kind =
  | Silent  (** never replies — the strongest omission adversary *)
  | Collude of { sn : int; v : int }
      (** always replies with the fixed cell [(sn, Int v)] *)

type corruption =
  | Corrupt_server of { server : int; sn : int; v : int }
      (** overwrite every instance of [server]'s state with the cell
          [(sn, Int v)] (both [last_val] and [helping]) *)
  | Corrupt_reader of { pwsn : int; v : int }
      (** atomic family only: force the reader's [(pwsn, pv)] bookkeeping *)
  | Corrupt_writer_sn of int  (** atomic family only: force the wsn *)
  | Corrupt_round of { client : int; round : int }
      (** overwrite a client port's data-link round tag *)
  | Crash_recover of { server : int }
      (** crash-recovery: the server instantaneously rejoins with its
          volatile state wiped to pristine [bot] content (the model-step
          rendering of a crash plus recovery with lost state) *)

type oracle =
  | Family_default
      (** regularity for [Regular], SW atomicity for [Atomic], MW atomicity
          for [Mwmr] *)
  | Atomic_oracle
      (** force the SW atomicity oracle — checking the {e regular} register
          against it exhibits the Fig. 1 new/old inversion *)

val oracle_to_string : oracle -> string

val oracle_of_string : string -> (oracle, string) result

type t = {
  family : family;
  n : int;
  f : int;  (** the declared bound [t] the protocol is parameterized with *)
  byz : (int * byz_kind) list;
      (** actual compromised slots — may exceed [f] (over-bound runs) *)
  writes : int;  (** writes per writer *)
  reads : int;  (** reads per reader *)
  read_budget : int;  (** max inquiry iterations per read *)
  menu : corruption list;
      (** transient-corruption choices; the explorer may fire each at most
          once per execution, at any point where some client is active *)
  oracle : oracle;
}

val client_ids : family -> int list
(** The family's client ports, ascending: the writer 100 and the reader
    101 for [Regular] and [Atomic], processes 300 and 301 for [Mwmr].
    [Corrupt_round] items may name only these. *)

val default : family:family -> t
(** n = 9, f = 1, no byzantine servers, 1 write, 1 read, budget 8, empty
    menu, family-default oracle. *)

val validate : t -> (unit, string) result

val codec : unit -> t Obs.Json.codec
(** The config as mc counterexamples and guides embed it; the decoder
    rejects what {!validate} rejects. *)

val to_json : t -> Obs.Json.t

val of_json : Obs.Json.t -> (t, string) result
(** Parses and {!validate}s. *)
