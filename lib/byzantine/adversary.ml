open Registers

type t = {
  net : Net.t;
  rng : Sim.Rng.t;
  servers : Server.t array;
  mutable byz : int list;
}

let install_honest t i = Net.install_honest_server t.net t.servers.(i)

let mark t label i =
  let engine = Net.engine t.net in
  let hub = Sim.Engine.hub engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Mark
         {
           time = Sim.Vtime.to_int (Sim.Engine.now engine);
           label = Printf.sprintf "byz.%s.s%d" label i;
         })

let sync_correct t =
  let byz = t.byz in
  Net.set_correct t.net (fun i -> not (List.exists (Int.equal i) byz))

let deploy ~net ~rng =
  let n = (Net.params net : Params.t).n in
  let t =
    { net; rng; servers = Array.init n (fun id -> Server.create ~id); byz = [] }
  in
  for i = 0 to n - 1 do
    install_honest t i
  done;
  sync_correct t;
  t

let servers t = t.servers

let server t i = t.servers.(i)

let compromise t i behavior =
  mark t "compromise" i;
  if not (List.mem i t.byz) then t.byz <- i :: t.byz;
  let ctx = { Behavior.net = t.net; server_id = i; rng = Sim.Rng.split t.rng } in
  (Net.endpoints t.net).(i).Net.on_deliver <- (fun env -> behavior ctx env);
  sync_correct t

let restore t i =
  mark t "restore" i;
  t.byz <- List.filter (fun j -> j <> i) t.byz;
  (* A machine coming back from Byzantine control holds arbitrary state. *)
  Server.corrupt t.servers.(i) t.rng;
  install_honest t i;
  sync_correct t

(* Crash faults occupy a fault slot like Byzantine ones: a crashed server
   is not correct, so it leaves the ss-broadcast correct set and the
   synchronized-delivery target shrinks accordingly. *)
let crash t i =
  mark t "crash" i;
  if not (List.mem i t.byz) then t.byz <- i :: t.byz;
  (Net.endpoints t.net).(i).Net.on_deliver <- (fun _ -> ());
  sync_correct t

let recover ?(wipe = `Arbitrary) ?rng t i =
  mark t "recover" i;
  t.byz <- List.filter (fun j -> j <> i) t.byz;
  Behavior.apply_wipe wipe t.servers.(i)
    (match rng with Some r -> r | None -> t.rng);
  install_honest t i;
  sync_correct t

let byzantine_ids t = List.sort Int.compare t.byz

let move t ~from ~to_ behavior =
  restore t from;
  compromise t to_ behavior

let roam t assignments =
  let engine = Net.engine t.net in
  let hub = Sim.Engine.hub engine in
  if Obs.Hub.active hub then
    Obs.Hub.emit hub
      (Obs.Event.Mark
         {
           time = Sim.Vtime.to_int (Sim.Engine.now engine);
           label =
             Printf.sprintf "byz.roam.[%s]"
               (String.concat ","
                  (List.map (fun (i, _) -> string_of_int i) assignments));
         });
  let kept = List.map fst assignments in
  List.iter
    (fun i -> if not (List.mem i kept) then restore t i)
    t.byz;
  List.iter (fun (i, behavior) -> compromise t i behavior) assignments
