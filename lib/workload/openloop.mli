(** Seeded open-loop load generation.

    The generator fixes every operation's arrival instant (in virtual
    ticks) up front — open loop: arrivals never wait for earlier
    operations to complete, so a tier that falls behind accumulates a
    queue, exactly the regime where write batching amortizes register
    round trips.  Key popularity is Zipfian ({!Zipf}) with configurable
    [theta]; inter-arrival gaps are exponential around [mean_gap]
    (Poisson-ish), compressed by [burst.factor] inside periodic burst
    windows; each op is issued by a uniformly drawn logical client.

    [generate] is a pure function of the config and the seed: the same
    inputs give the identical schedule, which is what makes shard-report
    artifacts replayable. *)

type kind = Read | Write

val kind_to_string : kind -> string

type op = {
  at : int;  (** arrival instant, in virtual ticks *)
  seq : int;  (** global sequence number, unique per run *)
  client : int;  (** logical client issuing the op *)
  key : int;  (** key rank in [0 .. keys-1] (0 = hottest) *)
  kind : kind;
}

type burst = {
  every : int;  (** window period, in ticks *)
  len : int;  (** window length at the start of each period *)
  factor : int;  (** arrival-rate multiplier inside the window *)
}

type config = {
  keys : int;
  clients : int;  (** logical clients (not fibers: the tier multiplexes) *)
  ops : int;
  theta : float;  (** Zipf exponent; 0 = uniform *)
  write_ratio : float;  (** probability an op is a write *)
  mean_gap : int;  (** mean inter-arrival gap, in ticks *)
  burst : burst option;
}

val default_config : config
(** 400 ops from 32 clients over 64 keys, [theta = 0.99], a 50/50 mix,
    mean gap 3, with a 4x burst in the first quarter of every 400
    ticks. *)

val validate : config -> (unit, string) result

val in_burst : config -> int -> bool
(** Whether an instant falls inside a burst window. *)

val generate : config -> seed:int -> op list
(** The full schedule, sorted by arrival instant.  Raises
    [Invalid_argument] on an invalid config. *)

val config_codec : unit -> config Obs.Json.codec
(** The config as the shard tier's artifacts embed it; the decoder
    rejects what {!validate} rejects. *)
