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

let burst_codec () =
  Obs.Json.(
    record (fun every len factor -> { every; len; factor })
    |> field "every" int (fun b -> b.every)
    |> field "len" int (fun b -> b.len)
    |> field "factor" int (fun b -> b.factor)
    |> seal)

let config_codec () =
  Obs.Json.(
    record (fun keys clients ops theta write_ratio mean_gap burst ->
        { keys; clients; ops; theta; write_ratio; mean_gap; burst })
    |> field "keys" int (fun c -> c.keys)
    |> field "clients" int (fun c -> c.clients)
    |> field "ops" int (fun c -> c.ops)
    |> field "theta" float (fun c -> c.theta)
    |> field "write_ratio" float (fun c -> c.write_ratio)
    |> field "mean_gap" int (fun c -> c.mean_gap)
    |> field "burst" (nullable (burst_codec ())) (fun c -> c.burst)
    |> seal ~check:validate)
