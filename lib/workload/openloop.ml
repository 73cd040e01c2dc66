(* Open-loop workload generation.

   An open-loop generator fixes every operation's arrival instant up
   front — arrivals never wait for earlier operations to finish, so when
   the storage tier falls behind, a queue builds (exactly the regime
   where a router's write batching pays off).  The schedule is Poisson-
   ish: inter-arrival gaps are exponential around [mean_gap], compressed
   by [burst.factor] inside periodic burst windows.  Everything is a
   pure function of the config and the seed. *)

type kind = Read | Write

let kind_to_string = function Read -> "read" | Write -> "write"

type op = { at : int; seq : int; client : int; key : int; kind : kind }

type burst = { every : int; len : int; factor : int }

type config = {
  keys : int;
  clients : int;
  ops : int;
  theta : float;
  write_ratio : float;
  mean_gap : int;
  burst : burst option;
}

let default_config =
  {
    keys = 64;
    clients = 32;
    ops = 400;
    theta = 0.99;
    write_ratio = 0.5;
    mean_gap = 3;
    burst = Some { every = 400; len = 100; factor = 4 };
  }

let validate cfg =
  if cfg.keys <= 0 then Error "openloop: keys must be positive"
  else if cfg.clients <= 0 then Error "openloop: clients must be positive"
  else if cfg.ops < 0 then Error "openloop: negative op count"
  else if cfg.theta < 0.0 then Error "openloop: negative theta"
  else if cfg.write_ratio < 0.0 || cfg.write_ratio > 1.0 then
    Error "openloop: write_ratio outside [0, 1]"
  else if cfg.mean_gap < 0 then Error "openloop: negative mean_gap"
  else
    match cfg.burst with
    | None -> Ok ()
    | Some b ->
      if b.every <= 0 || b.len < 0 || b.len > b.every || b.factor <= 0 then
        Error "openloop: burst wants every > 0, 0 <= len <= every, factor > 0"
      else Ok ()

let in_burst cfg at =
  match cfg.burst with
  | None -> false
  | Some b -> at mod b.every < b.len

(* Exponential gap around [mean], rounded to integer ticks.  [u] is in
   [0, 1) so [1 - u] is in (0, 1] and the log is finite. *)
let exp_gap ~mean u = int_of_float (Float.round (-.mean *. log (1.0 -. u)))

let generate cfg ~seed =
  (match validate cfg with Ok () -> () | Error e -> invalid_arg e);
  let rng = Sim.Rng.create (0x6f70 lxor (seed * 0x1000003)) in
  let zipf = Zipf.create ~keys:cfg.keys ~theta:cfg.theta in
  let t = ref 1 in
  List.init cfg.ops (fun seq ->
      let mean =
        let m = float_of_int cfg.mean_gap in
        match cfg.burst with
        | Some b when in_burst cfg !t -> m /. float_of_int b.factor
        | Some _ | None -> m
      in
      let gap = exp_gap ~mean (Sim.Rng.float rng 1.0) in
      t := !t + max 0 gap;
      let key = Zipf.sample zipf rng in
      let client = Sim.Rng.int rng cfg.clients in
      let kind =
        if Sim.Rng.float rng 1.0 < cfg.write_ratio then Write else Read
      in
      { at = !t; seq; client; key; kind })

(* ------------------------------------------------------------------ *)
(* Config (de)serialization, for embedding in versioned artifacts.    *)

let config_to_json c =
  Obs.Json.Obj
    [
      ("keys", Obs.Json.Int c.keys);
      ("clients", Obs.Json.Int c.clients);
      ("ops", Obs.Json.Int c.ops);
      ("theta", Obs.Json.Float c.theta);
      ("write_ratio", Obs.Json.Float c.write_ratio);
      ("mean_gap", Obs.Json.Int c.mean_gap);
      ( "burst",
        match c.burst with
        | None -> Obs.Json.Null
        | Some b ->
          Obs.Json.Obj
            [
              ("every", Obs.Json.Int b.every);
              ("len", Obs.Json.Int b.len);
              ("factor", Obs.Json.Int b.factor);
            ] );
    ]

let config_of_json j =
  let open Obs.Json in
  let ctx = "workload" in
  let* keys = int_field ctx "keys" j in
  let* clients = int_field ctx "clients" j in
  let* ops = int_field ctx "ops" j in
  let* theta = float_field ctx "theta" j in
  let* write_ratio = float_field ctx "write_ratio" j in
  let* mean_gap = int_field ctx "mean_gap" j in
  let* burst =
    opt_field ctx "burst"
      (fun ctx b ->
        let* every = int_field ctx "every" b in
        let* len = int_field ctx "len" b in
        let* factor = int_field ctx "factor" b in
        Ok { every; len; factor })
      j
  in
  let cfg = { keys; clients; ops; theta; write_ratio; mean_gap; burst } in
  let* () = validate cfg in
  Ok cfg
