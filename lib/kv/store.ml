type config = { keys : string list; clients : int }

let config ~keys ~clients =
  if keys = [] then invalid_arg "Kv.config: empty schema";
  if List.sort_uniq String.compare keys <> List.sort String.compare keys then
    invalid_arg "Kv.config: duplicate keys";
  if clients <= 0 then invalid_arg "Kv.config: need at least one client";
  { keys; clients }

module Stbl = Hashtbl.Make (String)

type t = {
  cfg : config;
  net : Registers.Net.t;
  port : Registers.Net.client_port;
  registers : (Registers.Mwmr.layout * Registers.Mwmr.state) Stbl.t;
  wprobe : Registers.Instr.probe option;
  rprobe : Registers.Instr.probe option;
}

let client ~net ~cfg ~id ~client_id =
  (* Each key's MWMR register occupies a disjoint instance range of size
     m*m, derived from its schema position. *)
  let m = cfg.clients in
  let engine = Registers.Net.engine net and params = Registers.Net.params net in
  let registers = Stbl.create (List.length cfg.keys) in
  List.iteri
    (fun idx key ->
      let mwmr_cfg =
        { (Registers.Mwmr.default_config ~m) with Registers.Mwmr.base_inst = idx * m * m }
      in
      Stbl.add registers key
        ( Registers.Mwmr.layout ~engine ~params ~cfg:mwmr_cfg ~id ~client_id (),
          Registers.Mwmr.fresh_state mwmr_cfg ))
    cfg.keys;
  {
    cfg;
    net;
    port = Registers.Net.add_client net ~id:client_id;
    registers;
    wprobe = Registers.Collect.probe ~engine ~client:client_id ~reg:"kv" `Write;
    rprobe = Registers.Collect.probe ~engine ~client:client_id ~reg:"kv" `Read;
  }

(* One kv span over one MWMR operation on the key's register, whose state
   is the whole client state of the run. *)
let run t probe ~key op =
  let layout, st = Stbl.find t.registers key in
  Registers.Collect.run ~net:t.net ~port:t.port st
    (Registers.Collect.scoped probe (op layout))

let set_o t ~key v = run t t.wprobe ~key (fun l -> Registers.Mwmr.write_op l Fun.id v)

let get_o t ~key =
  run t t.rprobe ~key (fun l -> Registers.Mwmr.read_op l Fun.id)
  |> Registers.Outcome.map (fun (v, _, _, _) -> v)

let keys t = t.cfg.keys

let snapshot t =
  List.map
    (fun key ->
      ( key,
        match get_o t ~key with
        | Registers.Outcome.Ok v -> v
        | Registers.Outcome.Degraded _ | Registers.Outcome.Timed_out _ ->
          Registers.Value.bot ))
    t.cfg.keys
