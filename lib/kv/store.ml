type config = {
  keys : string list;
  clients : int;
  base_inst : int;
  seq_bound : int;
}

let config ~keys ~clients =
  if keys = [] then invalid_arg "Kv.config: empty schema";
  if List.sort_uniq String.compare keys <> List.sort String.compare keys then
    invalid_arg "Kv.config: duplicate keys";
  if clients <= 0 then invalid_arg "Kv.config: need at least one client";
  { keys; clients; base_inst = 0; seq_bound = 1 lsl 61 }

module Stbl = Hashtbl.Make (String)

type t = {
  cfg : config;
  registers : Registers.Mwmr.process Stbl.t;
  wprobe : Registers.Instr.probe;
  rprobe : Registers.Instr.probe;
}

let client ~net ~cfg ~id ~client_id =
  (* Each key's MWMR register occupies a disjoint instance range of size
     m*m, derived from its schema position. *)
  let m = cfg.clients in
  let registers = Stbl.create (List.length cfg.keys) in
  List.iteri
    (fun idx key ->
      let mwmr_cfg =
        {
          (Registers.Mwmr.default_config ~m) with
          Registers.Mwmr.base_inst = cfg.base_inst + (idx * m * m);
          seq_bound = cfg.seq_bound;
        }
      in
      Stbl.add registers key (Registers.Mwmr.process ~net ~cfg:mwmr_cfg ~id ~client_id))
    cfg.keys;
  let engine = Registers.Net.engine net in
  {
    cfg;
    registers;
    wprobe = Registers.Instr.probe ~engine ~client:client_id ~reg:"kv" `Write;
    rprobe = Registers.Instr.probe ~engine ~client:client_id ~reg:"kv" `Read;
  }

let register t key = Stbl.find t.registers key

let set_o t ~key v =
  Registers.Instr.run t.wprobe (fun parent ->
      Registers.Mwmr.write ~parent (register t key) v)

let get_o t ~key =
  Registers.Instr.run t.rprobe (fun parent ->
      Registers.Mwmr.read ~parent (register t key))

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
