type t = {
  seed : int;
  engine : Sim.Engine.t;
  net : Registers.Net.t;
  fault : Sim.Fault.t;
  adversary : Byzantine.Adversary.t;
  history : Oracles.History.t;
}

let server_name id = Printf.sprintf "server.%d" id

let uniform hi ~client:_ ~server:_ ~to_server:_ rng =
  Sim.Link.uniform rng ~lo:1 ~hi

(* Every delay a given script draws in sync mode is checked against the
   model's bound; the default samplers stay within it by construction. *)
let bounded ~max_delay (link_delay : Registers.Net.link_delay) ~client ~server
    ~to_server rng =
  let sample = link_delay ~client ~server ~to_server rng in
  fun () ->
    let d = sample () in
    if d > max_delay then
      invalid_arg "Scenario.create: sync delays exceed the model's max_delay";
    d

let create ?(seed = 1) ?link_delay ?medium ~params () =
  let rng = Sim.Rng.create seed in
  let engine = Sim.Engine.create ~rng:(Sim.Rng.split rng) () in
  let link_delay : Registers.Net.link_delay =
    match (link_delay, (params : Registers.Params.t).mode) with
    | None, Registers.Params.Async -> uniform 10
    | None, Registers.Params.Sync { max_delay; _ } -> uniform max_delay
    | Some f, Registers.Params.Async -> f
    | Some f, Registers.Params.Sync { max_delay; _ } -> bounded ~max_delay f
  in
  let net = Registers.Net.create ~engine ~params ?medium ~link_delay () in
  let adversary = Byzantine.Adversary.deploy ~net ~rng:(Sim.Rng.split rng) in
  let fault = Sim.Fault.create () in
  Array.iter
    (fun srv ->
      let name = server_name (Registers.Server.id srv) in
      Sim.Fault.register fault ~name (fun rng ->
          Registers.Server.corrupt srv rng);
      Sim.Fault.register_process fault ~name
        ~crash:(fun () ->
          Byzantine.Adversary.crash adversary (Registers.Server.id srv))
        ~recover:(fun rng ->
          Registers.Server.corrupt srv rng;
          Byzantine.Adversary.recover adversary (Registers.Server.id srv)))
    (Byzantine.Adversary.servers adversary);
  { seed; engine; net; fault; adversary; history = Oracles.History.create () }

let run ?until t = Sim.Engine.run ?until t.engine

exception Deadlock of string

let stuck_jobs handles =
  List.filter_map
    (fun (name, h) ->
      match Sim.Fiber.status h with
      | Sim.Fiber.Running ->
        Some
          (Printf.sprintf "%s (blocked on %s)" name
             (Option.value ~default:"unknown" (Sim.Fiber.blocked_on h)))
      | Sim.Fiber.Failed e ->
        Some (Printf.sprintf "%s (raised: %s)" name (Printexc.to_string e))
      | Sim.Fiber.Done -> None)
    handles

let run_jobs ?until t jobs =
  let handles =
    List.map (fun (name, f) -> (name, Sim.Fiber.spawn ~name f)) jobs
  in
  run ?until t;
  stuck_jobs handles

let check_jobs handles =
  List.iter
    (fun (_, h) ->
      match Sim.Fiber.status h with
      | Sim.Fiber.Failed e -> raise e
      | Sim.Fiber.Done | Sim.Fiber.Running -> ())
    handles;
  match stuck_jobs handles with
  | [] -> ()
  | stuck ->
    raise
      (Deadlock
         (Printf.sprintf "engine quiesced with %d wedged fiber(s): %s"
            (List.length stuck)
            (String.concat "; " stuck)))

let now t = Sim.Engine.now t.engine

let rng t = Sim.Engine.rng t.engine

let split_rng t = Sim.Rng.split (rng t)

let sleep t span =
  Sim.Fiber.suspend (fun resume ->
      Sim.Engine.schedule t.engine ~delay:span resume)

let crash t ~at ~server ~down_for =
  Sim.Fault.schedule_crash t.fault ~engine:t.engine ~at:(Sim.Vtime.of_int at)
    ?down_for ~prefix:(server_name server) ()

let register_port t (port : Registers.Net.client_port) =
  let id = port.Registers.Net.client_id in
  Sim.Fault.register t.fault
    ~name:(Printf.sprintf "client.%d.round" id)
    (Registers.Net.corrupt_round port);
  Sim.Fault.register t.fault
    ~name:(Printf.sprintf "link.c%d" id)
    (Registers.Net.corrupt_links port)

let register_atomic_writer t ~name w =
  Sim.Fault.register t.fault
    ~name:(Printf.sprintf "client.%s.wsn" name)
    (fun rng -> Registers.Swsr_atomic.corrupt_writer w rng)

let register_atomic_reader t ~name r =
  Sim.Fault.register t.fault
    ~name:(Printf.sprintf "client.%s.p" name)
    (fun rng -> Registers.Swsr_atomic.corrupt_reader r rng)

let record t ~proc ~kind ?ts f =
  let inv = now t in
  let result = f () in
  let resp = now t in
  (match result with
  | Some v -> Oracles.History.record t.history ~proc ~kind ~inv ~resp ?ts v
  | None ->
    Oracles.History.record t.history ~proc ~kind ~inv ~resp ?ts ~ok:false
      Registers.Value.bot);
  result

let metrics t = Sim.Engine.metrics t.engine

let hub t = Sim.Engine.hub t.engine

let messages_sent t = Obs.Metrics.counter (Sim.Engine.metrics t.engine) "net.msgs"

let broadcasts t =
  Obs.Metrics.counter (Sim.Engine.metrics t.engine) "ss.broadcasts"
