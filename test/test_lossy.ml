open Util
open Registers

(* --- the raw unreliable medium --- *)

let mk_lossy ?(loss = 0.0) ?(dup = 0.0) ?(seed = 3) () =
  let rng = Sim.Rng.create seed in
  let engine = Sim.Engine.create ~rng () in
  let received = ref [] in
  let link =
    Sim.Lossy_link.create ~engine ~rng:(Sim.Rng.split rng)
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10)
      ~loss ~dup ~name:"test"
      ~deliver:(fun m -> received := m :: !received)
      ()
  in
  (engine, link, received)

let test_lossy_reliable_mode () =
  let engine, link, received = mk_lossy () in
  for i = 1 to 20 do
    Sim.Lossy_link.send link i
  done;
  Sim.Engine.run engine;
  check_int "all delivered with loss 0" 20 (List.length !received)

let test_lossy_reorders () =
  let engine, link, received = mk_lossy ~seed:5 () in
  for i = 1 to 50 do
    Sim.Lossy_link.send link i
  done;
  Sim.Engine.run engine;
  check_true "not FIFO" (List.rev !received <> List.init 50 (fun i -> i + 1));
  check_true "same multiset"
    (List.sort Int.compare !received = List.init 50 (fun i -> i + 1))

let test_lossy_loses () =
  let engine, link, received = mk_lossy ~loss:0.5 ~seed:5 () in
  for i = 1 to 200 do
    Sim.Lossy_link.send link i
  done;
  Sim.Engine.run engine;
  let got = List.length !received in
  check_true "roughly half lost" (got > 60 && got < 140)

let test_lossy_duplicates () =
  let engine, link, received = mk_lossy ~dup:0.5 ~seed:5 () in
  for i = 1 to 100 do
    Sim.Lossy_link.send link i
  done;
  Sim.Engine.run engine;
  check_true "more deliveries than sends" (List.length !received > 110)

let test_lossy_corrupt_in_flight () =
  let engine, link, received = mk_lossy () in
  Sim.Lossy_link.send link 1;
  Sim.Lossy_link.send link 2;
  Sim.Lossy_link.corrupt_in_flight link (function
    | 1 -> Some 99
    | _ -> None);
  Sim.Engine.run engine;
  Alcotest.(check (list int)) "rewritten and dropped" [ 99 ] !received

let test_lossy_set_loss_window () =
  (* A loss:1.0 window drops everything; closing it restores delivery. *)
  let engine, link, received = mk_lossy ~seed:6 () in
  let sink, events = Obs.Sink.memory () in
  Obs.Hub.attach (Sim.Engine.hub engine) sink;
  Sim.Lossy_link.set_loss link 1.0;
  check_true "knob readable" (Sim.Lossy_link.loss link = 1.0);
  for i = 1 to 20 do
    Sim.Lossy_link.send link i
  done;
  Sim.Engine.run engine;
  check_int "window drops everything" 0 (List.length !received);
  Sim.Lossy_link.set_loss link 0.0;
  for i = 21 to 40 do
    Sim.Lossy_link.send link i
  done;
  Sim.Engine.run engine;
  check_int "delivery restored after the window" 20 (List.length !received);
  let marks =
    List.filter
      (function
        | Obs.Event.Mark { label; _ } ->
          String.length label >= 5 && String.sub label 0 5 = "link."
        | _ -> false)
      (events ())
  in
  check_int "one mark per knob change" 2 (List.length marks)

let test_lossy_set_knobs_validate () =
  let engine, link, _ = mk_lossy () in
  Alcotest.check_raises "loss out of range"
    (Invalid_argument "Lossy_link.set_loss: loss must be in [0,1]") (fun () ->
      Sim.Lossy_link.set_loss link 1.5);
  Alcotest.check_raises "dup out of range"
    (Invalid_argument "Lossy_link.set_dup: dup must be in [0,1]") (fun () ->
      Sim.Lossy_link.set_dup link (-0.1));
  Sim.Lossy_link.set_dup link 0.25;
  check_true "dup knob readable" (Sim.Lossy_link.dup link = 0.25);
  ignore engine

(* --- the self-stabilizing transport --- *)

let mk_transport ?(loss = 0.3) ?(dup = 0.2) ?(seed = 7) () =
  let rng = Sim.Rng.create seed in
  let engine = Sim.Engine.create ~rng () in
  let received = ref [] in
  let tr =
    Ss_transport.create ~engine ~rng:(Sim.Rng.split rng)
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10)
      ~loss ~dup ~name:"t"
      ~deliver:(fun m -> received := m :: !received)
      ()
  in
  (engine, tr, received)

let test_transport_exactly_once_in_order () =
  let engine, tr, received = mk_transport () in
  for i = 1 to 50 do
    Ss_transport.send tr i
  done;
  Sim.Engine.run engine;
  check_true "exactly once, in order, despite 30% loss + 20% dup"
    (List.rev !received = List.init 50 (fun i -> i + 1));
  check_int "nothing pending" 0 (Ss_transport.pending tr)

let test_transport_on_delivered_fires_after_delivery () =
  let engine, tr, received = mk_transport () in
  let confirmed = ref false in
  let delivered_when_confirmed = ref (-1) in
  Ss_transport.send tr
    ~on_delivered:(fun () ->
      confirmed := true;
      delivered_when_confirmed := List.length !received)
    42;
  Sim.Engine.run engine;
  check_true "confirmed" !confirmed;
  check_true "confirmation after the delivery" (!delivered_when_confirmed >= 1)

let test_transport_cost_grows_with_loss () =
  let cost loss =
    let engine, tr, _ = mk_transport ~loss ~dup:0.0 () in
    for i = 1 to 30 do
      Ss_transport.send tr i
    done;
    Sim.Engine.run engine;
    Ss_transport.packets_sent tr
  in
  check_true "retransmissions kick in" (cost 0.5 > cost 0.0)

let test_transport_recovers_from_corruption () =
  let engine, tr, received = mk_transport ~seed:11 () in
  for i = 1 to 10 do
    Ss_transport.send tr i
  done;
  Sim.Engine.run engine;
  (* Transient fault on both endpoints and the wire. *)
  Ss_transport.corrupt tr (Sim.Rng.create 99);
  let before = List.length !received in
  for i = 11 to 30 do
    Ss_transport.send tr i
  done;
  Sim.Engine.run engine;
  let after = List.filter (fun m -> m > 10) !received in
  (* Self-stabilization contract: bounded anomalies, then exactly-once in
     order.  All post-corruption messages must eventually arrive... *)
  check_true "all post-fault messages delivered"
    (List.for_all (fun i -> List.mem i after) (List.init 20 (fun i -> i + 11)));
  (* ...and the in-order suffix must dominate: drop leading debris and the
     rest is the exact sequence. *)
  let rec strip = function
    | x :: rest when x <> 11 -> strip rest
    | l -> l
  in
  let tail = strip (List.rev !received) in
  let deduped = List.sort_uniq Int.compare tail in
  check_true "post-fault stream re-synchronized"
    (deduped = List.init 20 (fun i -> i + 11));
  ignore before

let test_transport_survives_total_loss_window () =
  (* A loss:1.0 window on the transport: retransmissions are futile while
     it lasts, but once the window closes the stop-and-wait protocol
     drains everything exactly-once in order. *)
  let engine, tr, received = mk_transport ~loss:0.0 ~dup:0.0 ~seed:21 () in
  for i = 1 to 5 do
    Ss_transport.send tr i
  done;
  Sim.Engine.run engine;
  check_int "pre-window messages through" 5 (List.length !received);
  Ss_transport.set_loss tr 1.0;
  for i = 6 to 15 do
    Ss_transport.send tr i
  done;
  (* Bound the run: with total loss the retransmission timer ticks
     forever, so quiescence never comes while the window is open. *)
  Sim.Engine.run ~until:(Sim.Vtime.of_int 2_000) engine;
  check_int "window blocks everything" 5 (List.length !received);
  check_true "sends still pending" (Ss_transport.pending tr > 0);
  Ss_transport.set_loss tr 0.0;
  Sim.Engine.run engine;
  check_true "transport recovered after the window"
    (List.rev !received = List.init 15 (fun i -> i + 1));
  check_int "nothing pending" 0 (Ss_transport.pending tr)

let test_transport_tag_wrap () =
  (* A tiny tag space: the wrapping tag stays exactly-once FIFO through
     many wraps. *)
  let rng = Sim.Rng.create 14 in
  let engine = Sim.Engine.create ~rng () in
  let received = ref [] in
  let tr =
    Ss_transport.create ~engine ~rng:(Sim.Rng.split rng)
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:5)
      ~loss:0.2 ~dup:0.1 ~tag_space:8 ~name:"wrap"
      ~deliver:(fun m -> received := m :: !received)
      ()
  in
  for i = 1 to 100 do
    Ss_transport.send tr i
  done;
  Sim.Engine.run engine;
  check_true "100 messages through an 8-tag space"
    (List.rev !received = List.init 100 (fun i -> i + 1))

let test_transport_validation () =
  let rng = Sim.Rng.create 1 in
  let engine = Sim.Engine.create ~rng () in
  Alcotest.check_raises "tag space too small"
    (Invalid_argument "Ss_transport.create: tag space too small")
    (fun () ->
      ignore
        (Ss_transport.create ~engine ~rng ~delay:(Sim.Link.fixed 1)
           ~tag_space:4 ~name:"x" ~deliver:ignore ()
          : int Ss_transport.t))

(* --- a port's transient link faults, on both media --- *)

(* A deployment whose nine servers only record what reaches them, and
   one client port. *)
let recording_net ?medium () =
  let rng = Sim.Rng.create 5 in
  let engine = Sim.Engine.create ~rng:(Sim.Rng.split rng) () in
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let net =
    Net.create ~engine ~params ?medium
      ~link_delay:(fun rng -> Sim.Link.uniform rng ~lo:1 ~hi:10)
      ()
  in
  let got = Array.make 9 [] in
  Array.iteri
    (fun s (ep : Net.endpoint) ->
      ep.Net.on_deliver <- (fun env -> got.(s) <- env :: got.(s)))
    (Net.endpoints net);
  (engine, net, Net.add_client net ~id:0, got)

(* Two requests in flight on every link when the fault hits: each server
   still receives two, with their round tags, but the write's cell is
   arbitrary.  The return links carry only the planted acknowledgments. *)
let test_corrupt_links_fifo () =
  let engine, net, port, got = recording_net () in
  let cell = { Messages.sn = 1; v = Value.int 5 } in
  let r0 = port.Net.round in
  List.iter
    (fun body ->
      ignore (Sim.Fiber.spawn (fun () -> ignore (Net.ss_broadcast net port ~inst:0 body))))
    [ Messages.Write cell; Messages.Read true ];
  Net.corrupt_links port (Sim.Rng.create 99);
  Sim.Engine.run engine;
  Array.iteri
    (fun s envs ->
      let envs = List.rev envs in
      let label = Printf.sprintf "server %d" s in
      Alcotest.(check (list int))
        (label ^ ": same count, same round tags")
        [ r0 + 1; r0 + 2 ]
        (List.map (fun (env : Messages.server_envelope) -> env.round) envs);
      match List.map (fun (env : Messages.server_envelope) -> env.body) envs with
      | [ Messages.Write c; Messages.Read _ ] ->
        check_false (label ^ ": write body rewritten") (Messages.cell_equal c cell)
      | _ -> Alcotest.failf "%s: request kinds changed" label)
    got;
  let planted = Sim.Mailbox.drain port.Net.mailbox in
  check_true "acknowledgments planted" (not (List.is_empty planted));
  check_true "only planted acknowledgments"
    (List.for_all
       (fun (env : Messages.client_envelope) ->
         match env.body with Messages.Ack_read _ -> true | Messages.Ack_write _ -> false)
       planted)

(* Quiescent transports scrambled: the next messages take longer to get
   through than without the fault (a receiver rejects the live sender's
   tag until its retransmissions re-synchronize it), then every server
   delivers each exactly once, in order. *)
let test_corrupt_links_stabilizing () =
  let post_fault ~fault =
    let engine, net, port, got =
      recording_net ~medium:(Net.Stabilizing { loss = 0.0; dup = 0.0 }) ()
    in
    let broadcast_all sns =
      ignore
        (Sim.Fiber.spawn (fun () ->
             List.iter
               (fun sn ->
                 ignore
                   (Net.ss_broadcast net port ~inst:0
                      (Messages.Write { sn; v = Value.int sn })))
               sns));
      Sim.Engine.run engine
    in
    broadcast_all (List.init 5 (fun i -> i + 1));
    Array.fill got 0 9 [];
    if fault then Net.corrupt_links port (Sim.Rng.create 99);
    broadcast_all (List.init 10 (fun i -> i + 6));
    let sns envs =
      List.rev_map
        (fun (env : Messages.server_envelope) ->
          match env.body with
          | Messages.Write c -> c.Messages.sn
          | Messages.New_help _ | Messages.Read _ -> -1)
        envs
    in
    (Sim.Vtime.to_int (Sim.Engine.now engine), Array.map sns got)
  in
  let clean_end, _ = post_fault ~fault:false in
  let fault_end, delivered = post_fault ~fault:true in
  check_true "the scrambled tags held the senders back" (fault_end > clean_end);
  Array.iteri
    (fun s sns ->
      Alcotest.(check (list int))
        (Printf.sprintf "server %d: exactly once, in order" s)
        (List.init 10 (fun i -> i + 6))
        sns)
    delivered

(* --- registers end-to-end over the Stabilizing medium --- *)

let lossy_medium =
  Registers.Net.Stabilizing { loss = 0.2; dup = 0.1 }

let test_register_over_lossy_medium () =
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:5 ~medium:lossy_medium ~params () in
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
  let got = ref [] in
  run_fibers scn
    [
      ( "wr",
        fun () ->
          for i = 1 to 10 do
            ignore (Swsr_atomic.write w (int_value i));
            got := Outcome.to_option (Swsr_atomic.read r) :: !got
          done );
    ];
  List.iteri
    (fun idx v ->
      Alcotest.(check (option value))
        (Printf.sprintf "read %d over lossy links" idx)
        (Some (int_value (10 - idx)))
        v)
    !got

let test_register_over_lossy_medium_concurrent () =
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:8 ~medium:lossy_medium ~params () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 4
    Byzantine.Behavior.garbage;
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ())
            ~write:(Swsr_atomic.write w)
            ~count:15 ~gap:(Harness.Workload.gap 0 30) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn ~tally:(Harness.Workload.tally ())
            ~read:(fun () -> Swsr_atomic.read r)
            ~count:15 ~gap:(Harness.Workload.gap 0 30) () );
    ];
  let h = scn.Harness.Scenario.history in
  let cutoff =
    match Oracles.Stabilization.cutoff_from h ~lo:0 with
    | Some c -> c
    | None -> Alcotest.fail "no writes"
  in
  let report = Oracles.Atomicity.Sw.check ~cutoff h in
  if not (Oracles.Atomicity.Sw.is_clean report) then
    Alcotest.failf "%a" Oracles.Atomicity.Sw.pp report

let test_register_over_lossy_medium_with_transport_fault () =
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:9 ~medium:lossy_medium ~params () in
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
  Harness.Scenario.register_port scn (Swsr_atomic.writer_port w);
  Harness.Scenario.register_port scn (Swsr_atomic.reader_port r);
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int 800) ~prefix:"";
  let tail = ref [] in
  run_fibers scn
    [
      ( "wr",
        fun () ->
          for i = 1 to 25 do
            ignore (Swsr_atomic.write w (int_value i));
            let v = Outcome.to_option (Swsr_atomic.read r) in
            if i > 20 then tail := (i, v) :: !tail;
            Harness.Scenario.sleep scn 40
          done );
    ];
  (* The fault lands mid-run (t=800 against ~40 ticks per round); the last
     reads must be correct again. *)
  List.iter
    (fun (i, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "post-fault read %d" i)
        (Some (int_value i))
        v)
    !tail

let tests =
  [
    case "lossy: reliable mode" test_lossy_reliable_mode;
    case "lossy: reorders" test_lossy_reorders;
    case "lossy: loses" test_lossy_loses;
    case "lossy: duplicates" test_lossy_duplicates;
    case "lossy: corrupt in flight" test_lossy_corrupt_in_flight;
    case "lossy: runtime loss window" test_lossy_set_loss_window;
    case "lossy: knob validation" test_lossy_set_knobs_validate;
    case "transport: total-loss window then recovery"
      test_transport_survives_total_loss_window;
    case "transport: exactly-once in order" test_transport_exactly_once_in_order;
    case "transport: on_delivered ordering" test_transport_on_delivered_fires_after_delivery;
    case "transport: retransmission cost" test_transport_cost_grows_with_loss;
    case "transport: recovers from corruption" test_transport_recovers_from_corruption;
    case "transport: tag wrap" test_transport_tag_wrap;
    case "transport: validation" test_transport_validation;
    case "corrupt_links on reliable fifo" test_corrupt_links_fifo;
    case "corrupt_links on stabilizing" test_corrupt_links_stabilizing;
    case "register over lossy links" test_register_over_lossy_medium;
    case "register over lossy links, concurrent" test_register_over_lossy_medium_concurrent;
    case "register over lossy links, transport fault" test_register_over_lossy_medium_with_transport_fault;
  ]
