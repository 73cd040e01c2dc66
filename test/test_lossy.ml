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
  let events = Obs.Hub.record (Sim.Engine.hub engine) in
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

(* A seeded random program on one link: sends (some from inside a
   delivery), single steps, in-flight rewrites and drops, and loss/dup
   retuning, over delays of 0-4 ticks so that instants collide.  The
   trail records every delivery with its instant and every packet the
   corruption hook visits, in visiting order. *)
let lossy_program seed =
  let rng = Sim.Rng.create seed in
  let engine = Sim.Engine.create ~rng () in
  let link_rng = Sim.Rng.split rng in
  let prog = Sim.Rng.split rng in
  let trail = Buffer.create 4096 in
  let self = ref None in
  let send m = Option.iter (fun l -> Sim.Lossy_link.send l m) !self in
  let link =
    Sim.Lossy_link.create ~engine ~rng:link_rng
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:0 ~hi:4)
      ~loss:0.2 ~dup:0.2 ~name:"pin"
      ~deliver:(fun m ->
        Printf.bprintf trail "d%d@%d " m
          (Sim.Vtime.to_int (Sim.Engine.now engine));
        if m mod 5 = 0 && m < 100_000 then send (m + 100_000))
      ()
  in
  self := Some link;
  let next = ref 0 in
  for _ = 1 to 600 do
    match Sim.Rng.int prog 12 with
    | 0 | 1 | 2 | 3 ->
      incr next;
      send !next
    | 4 | 5 | 6 | 7 -> ignore (Sim.Engine.step engine : bool)
    | 8 ->
      Sim.Lossy_link.corrupt_in_flight link (fun m ->
          Printf.bprintf trail "c%d " m;
          match Sim.Rng.int prog 3 with
          | 0 -> None
          | 1 -> Some (m + 1_000_000)
          | _ -> Some m)
    | 9 -> Sim.Lossy_link.set_loss link (Sim.Rng.pick prog [| 0.0; 0.2; 0.6; 1.0 |])
    | 10 -> Sim.Lossy_link.set_dup link (Sim.Rng.pick prog [| 0.0; 0.2; 0.6 |])
    | _ -> Sim.Engine.run ~max_events:(Sim.Rng.int prog 6) engine
  done;
  Sim.Engine.run engine;
  let counter = Obs.Metrics.counter (Sim.Engine.metrics engine) in
  ( Digest.to_hex (Digest.string (Buffer.contents trail)),
    [ counter "net.pkts"; counter "net.msgs"; counter "net.dropped" ],
    Sim.Rng.int link_rng 1_000_000 )

(* Pinned from the list-based medium: the delivery sequence, the
   counters and the link generator's next draw of three programs. *)
let test_lossy_program_pinned () =
  List.iter
    (fun (seed, digest, counters, next_draw) ->
      let d, c, n = lossy_program seed in
      let name = Printf.sprintf "seed %d" seed in
      Alcotest.(check string) (name ^ " trail") digest d;
      Alcotest.(check (list int)) (name ^ " pkts, msgs, dropped") counters c;
      check_int (name ^ " next draw") next_draw n)
    [
      (1, "9b02c8adc69ab342321ae3b55c622256", [ 250; 128; 98 ], 434069);
      (2, "ff82a82900c4a7e5549ccc9d5e7795af", [ 246; 151; 73 ], 989755);
      (3, "e01b0463967521fa3570d483404a7d8f", [ 235; 120; 100 ], 926942);
    ]

(* A payload registered in [w] at [i]; apart from the link, nothing
   keeps it alive. *)
let[@inline never] send_tracked link w i =
  let payload = ref i in
  Weak.set w i (Some payload);
  Sim.Lossy_link.send link payload

(* Once a packet is delivered the link no longer holds its payload,
   while packets still in flight stay alive. *)
let test_lossy_delivered_not_retained () =
  let rng = Sim.Rng.create 3 in
  let e = Sim.Engine.create ~rng () in
  let link =
    Sim.Lossy_link.create ~engine:e ~rng:(Sim.Rng.split rng)
      ~delay:(Sim.Link.fixed 2) ~name:"weak" ~deliver:ignore ()
  in
  let w = Weak.create 2 in
  send_tracked link w 0;
  Sim.Engine.run e;
  send_tracked link w 1;
  Gc.full_major ();
  check_false "a delivered payload is released" (Weak.check w 0);
  check_true "an in-flight payload is kept" (Weak.check w 1);
  Sim.Engine.run e;
  Gc.full_major ();
  check_false "the last payload is released" (Weak.check w 1);
  check_int "link alive and drained" 0 (Sim.Engine.pending (Sys.opaque_identity e));
  ignore (Sys.opaque_identity link)

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

let counter engine name = Obs.Metrics.counter (Sim.Engine.metrics engine) name

(* The transport's retransmission interval (ss_transport.mli); a copy
   takes 1-10 ticks on these links. *)
let retrans = 30

(* A message goes out again only [retrans] ticks after its own last
   transmission, never on a timer left over from the message before it.
   Loss-free, the round trip (at most 20 ticks) always beats that
   deadline, so nothing is retransmitted.  Under loss, the receiver
   acknowledges every arriving copy of the message it delivered last:
   a step that sends an acknowledgment is such an arrival, and two
   copies of one message then arrive at least [retrans - 9] ticks
   apart. *)
let test_transport_retransmits_on_own_deadline () =
  let messages = 60 in
  let engine, tr, received = mk_transport ~loss:0.0 ~dup:0.0 () in
  for i = 1 to messages do
    Ss_transport.send tr i
  done;
  Sim.Engine.run engine;
  check_int "all delivered" messages (List.length !received);
  check_int "no retransmission on a loss-free link" 0
    (counter engine "transport.retrans");
  check_int "one packet per message" messages (Ss_transport.packets_sent tr);
  let engine, tr, received = mk_transport ~loss:0.3 ~dup:0.0 ~seed:12 () in
  for i = 1 to messages do
    Ss_transport.send tr i
  done;
  let acks () = counter engine "net.pkts" - Ss_transport.packets_sent tr in
  let last_arrival = Array.make (messages + 1) (-1) in
  let copies = ref 0 and min_gap = ref max_int in
  let rec go () =
    let before = acks () in
    if Sim.Engine.step engine then begin
      (match !received with
      | m :: _ when acks () > before ->
        let now = Sim.Vtime.to_int (Sim.Engine.now engine) in
        if last_arrival.(m) >= 0 then begin
          incr copies;
          min_gap := Int.min !min_gap (now - last_arrival.(m))
        end;
        last_arrival.(m) <- now
      | _ -> ());
      go ()
    end
  in
  go ();
  check_true "exactly once, in order"
    (List.rev !received = List.init messages (fun i -> i + 1));
  check_true "some message reached the receiver twice" (!copies > 0);
  check_true
    (Printf.sprintf "copies of one message %d ticks apart, at least %d"
       !min_gap (retrans - 9))
    (!min_gap >= retrans - 9)

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
      ~link_delay:(fun ~client:_ ~server:_ ~to_server:_ rng -> Sim.Link.uniform rng ~lo:1 ~hi:10)
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
            let v = Outcome.to_option (Swsr_atomic.read ~max_iterations:64 r) in
            if i > 20 then tail := (i, v) :: !tail;
            Harness.Scenario.sleep scn 40
          done );
    ];
  (* The fault lands mid-run (t=800 against ~40 ticks per round); the last
     reads must be correct again.  It may land inside a read, with the
     writer blocked behind it in the same fiber: no write then follows the
     fault, every server may hold a scrambled cell, and nothing promises
     that read a quorum.  The budget lets it give up, so the next write
     re-establishes the register. *)
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
    case "lossy: random program pinned" test_lossy_program_pinned;
    case "lossy: delivered payload not retained" test_lossy_delivered_not_retained;
    case "transport: total-loss window then recovery"
      test_transport_survives_total_loss_window;
    case "transport: exactly-once in order" test_transport_exactly_once_in_order;
    case "transport: on_delivered ordering" test_transport_on_delivered_fires_after_delivery;
    case "transport: retransmission cost" test_transport_cost_grows_with_loss;
    case "transport: retransmits on the message's own deadline"
      test_transport_retransmits_on_own_deadline;
    case "transport: recovers from corruption" test_transport_recovers_from_corruption;
    case "transport: tag wrap" test_transport_tag_wrap;
    case "transport: validation" test_transport_validation;
    case "corrupt_links on reliable fifo" test_corrupt_links_fifo;
    case "corrupt_links on stabilizing" test_corrupt_links_stabilizing;
    case "register over lossy links" test_register_over_lossy_medium;
    case "register over lossy links, concurrent" test_register_over_lossy_medium_concurrent;
    case "register over lossy links, transport fault" test_register_over_lossy_medium_with_transport_fault;
  ]
