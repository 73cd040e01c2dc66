open Util
open Registers

let setup ?(n = 9) ?(f = 1) ?(seed = 5) () =
  let rng = Sim.Rng.create seed in
  let engine = Sim.Engine.create ~rng:(Sim.Rng.split rng) () in
  let params = Params.create_exn ~n ~f ~mode:Params.Async () in
  let net =
    Net.create ~engine ~params ~link_delay:(fun ~client:_ ~server:_ ~to_server:_ rng ->
        Sim.Link.uniform rng ~lo:1 ~hi:10) ()
  in
  (engine, net)

let test_broadcast_reaches_all_servers () =
  let engine, net = setup () in
  let hits = Array.make 9 0 in
  Array.iteri
    (fun i (ep : Net.endpoint) ->
      ep.Net.on_deliver <- (fun _ -> hits.(i) <- hits.(i) + 1))
    (Net.endpoints net);
  let port = Net.add_client net ~id:0 in
  run_engine_fiber engine (fun () ->
      ignore (Net.ss_broadcast net port ~inst:0 (Messages.Read false)));
  Array.iteri (fun i h -> check_int (Printf.sprintf "server %d" i) 1 h) hits

let test_synchronized_delivery () =
  (* The broadcast must not return before n-2t correct servers delivered. *)
  let engine, net = setup () in
  let delivered = ref 0 in
  Array.iter
    (fun (ep : Net.endpoint) ->
      ep.Net.on_deliver <- (fun _ -> incr delivered))
    (Net.endpoints net);
  let port = Net.add_client net ~id:0 in
  let seen_at_return = ref (-1) in
  let _h =
    Sim.Fiber.spawn (fun () ->
        ignore (Net.ss_broadcast net port ~inst:0 (Messages.Read true));
        seen_at_return := !delivered)
  in
  Sim.Engine.run engine;
  check_true "at least n-2t deliveries before return" (!seen_at_return >= 7)

let test_round_increments () =
  let engine, net = setup () in
  let port = Net.add_client net ~id:0 in
  let r0 = port.Net.round in
  let _h =
    Sim.Fiber.spawn (fun () ->
        ignore (Net.ss_broadcast net port ~inst:0 (Messages.Read false));
        ignore (Net.ss_broadcast net port ~inst:0 (Messages.Read false)))
  in
  Sim.Engine.run engine;
  check_int "two rounds consumed" (r0 + 2) port.Net.round

let test_reply_routing () =
  let engine, net = setup () in
  let port = Net.add_client net ~id:4 in
  Net.reply net ~server:2 ~client:4 (Messages.Ack_write None) ~round:7;
  Sim.Engine.run engine;
  match Sim.Mailbox.drain port.Net.mailbox with
  | [ (env : Messages.client_envelope) ] ->
    check_int "server id" 2 env.server;
    check_int "round echoed" 7 env.round
  | other -> Alcotest.failf "expected one envelope, got %d" (List.length other)

let test_reply_to_unknown_client_dropped () =
  let engine, net = setup () in
  (* Must not raise. *)
  Net.reply net ~server:0 ~client:99 (Messages.Ack_write None) ~round:1;
  Sim.Engine.run engine

let test_add_client_idempotent () =
  let _, net = setup () in
  let p1 = Net.add_client net ~id:3 in
  let p2 = Net.add_client net ~id:3 in
  check_true "same port" (p1 == p2);
  check_int "one port" 1 (List.length (Net.client_ports net))

let test_honest_server_round_trip () =
  let engine, net = setup () in
  let srv = Server.create ~id:0 in
  Net.install_honest_server net srv;
  let port = Net.add_client net ~id:0 in
  let got = ref [] in
  let _h =
    Sim.Fiber.spawn (fun () ->
        ignore
          (Net.ss_broadcast net port ~inst:0
             (Messages.Write { sn = 1; v = Value.int 5 }));
        (* Only server 0 is honest here; expect exactly its ack. *)
        got := [ Sim.Mailbox.recv port.Net.mailbox ])
  in
  Sim.Engine.run engine;
  match !got with
  | [ (env : Messages.client_envelope) ] -> check_int "from server 0" 0 env.server
  | _ -> Alcotest.fail "no ack"

let test_correctness_ground_truth () =
  let _, net = setup () in
  check_true "all correct initially" (Net.is_correct net 3);
  Net.set_correct net (fun i -> i <> 3);
  check_false "3 byzantine" (Net.is_correct net 3);
  check_true "others fine" (Net.is_correct net 2)

(* Every seeded artifact depends on the order in which a new port asks
   for its link samplers, each from the next split of the engine's
   generator: one call per (server, direction) with the port's client id,
   the to-server links first in server order, then the from-server links,
   under both media.  An existing port builds nothing. *)
let test_link_delay_order () =
  let links id =
    List.init 9 (fun s -> (id, s, true)) @ List.init 9 (fun s -> (id, s, false))
  in
  List.iter
    (fun (label, medium) ->
      let calls = ref [] and draws = ref [] in
      let engine = Sim.Engine.create ~rng:(Sim.Rng.create 5) () in
      let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
      let net =
        Net.create ~engine ~params ~medium
          ~link_delay:(fun ~client ~server ~to_server rng ->
            calls := (client, server, to_server) :: !calls;
            draws := Sim.Rng.int rng 1_000_000 :: !draws;
            Sim.Link.fixed 1)
          ()
      in
      List.iter (fun id -> ignore (Net.add_client net ~id)) [ 7; 3; 7 ];
      Alcotest.(check (list (triple int int bool)))
        (label ^ ": one call per link, in build order")
        (links 7 @ links 3) (List.rev !calls);
      match medium with
      | Net.Reliable_fifo ->
        let twin = Sim.Rng.create 5 in
        Alcotest.(check (list int))
          (label ^ ": the k-th call gets the k-th split")
          (List.init 36 (fun _ -> Sim.Rng.int (Sim.Rng.split twin) 1_000_000))
          (List.rev !draws)
      | Net.Stabilizing _ -> ())
    [
      ("fifo", Net.Reliable_fifo);
      ("stabilizing", Net.Stabilizing { loss = 0.; dup = 0. });
    ]

let tests =
  [
    case "broadcast reaches all" test_broadcast_reaches_all_servers;
    case "synchronized delivery" test_synchronized_delivery;
    case "round increments" test_round_increments;
    case "reply routing" test_reply_routing;
    case "reply to unknown dropped" test_reply_to_unknown_client_dropped;
    case "add_client idempotent" test_add_client_idempotent;
    case "honest round trip" test_honest_server_round_trip;
    case "correctness ground truth" test_correctness_ground_truth;
    case "ports build links in one order" test_link_delay_order;
  ]
