open Util
open Registers

let test_deterministic_replay () =
  let run seed =
    let scn = async_scenario ~seed () in
    let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
    let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
    run_fibers scn
      [
        ( "wr",
          fun () ->
            for i = 1 to 10 do
              ignore (Swsr_regular.write w (int_value i));
              ignore (Swsr_regular.read r)
            done );
      ];
    ( Sim.Vtime.to_int (Harness.Scenario.now scn),
      Harness.Scenario.messages_sent scn,
      Harness.Scenario.broadcasts scn )
  in
  check_true "bit-identical replay" (run 5 = run 5);
  check_true "different seeds differ" (run 5 <> run 6)

let test_fault_targets_registered () =
  let scn = async_scenario ~n:9 () in
  let names = Sim.Fault.names scn.Harness.Scenario.fault in
  check_int "one target per server" 9
    (List.length
       (List.filter
          (fun n -> String.length n > 7 && String.sub n 0 7 = "server.")
          names))

let test_register_port_targets () =
  let scn = async_scenario () in
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:42 ~inst:0 () in
  Harness.Scenario.register_port scn (Swsr_atomic.writer_port w);
  Harness.Scenario.register_atomic_writer scn ~name:"w" w;
  let names = Sim.Fault.names scn.Harness.Scenario.fault in
  check_true "round target" (List.mem "client.42.round" names);
  check_true "link target" (List.mem "link.c42" names);
  check_true "wsn target" (List.mem "client.w.wsn" names)

let test_record_success_and_failure () =
  let scn = async_scenario () in
  let _ =
    Sim.Fiber.spawn (fun () ->
        ignore
          (Harness.Scenario.record scn ~proc:"p" ~kind:Oracles.History.Read
             (fun () -> Some (int_value 1)));
        ignore
          (Harness.Scenario.record scn ~proc:"p" ~kind:Oracles.History.Read
             (fun () -> None)))
  in
  Harness.Scenario.run scn;
  match Oracles.History.ops scn.Harness.Scenario.history with
  | [ ok_op; failed_op ] ->
    check_true "ok recorded" ok_op.Oracles.History.ok;
    check_false "failure recorded" failed_op.Oracles.History.ok
  | l -> Alcotest.failf "expected 2 ops, got %d" (List.length l)

let test_sleep_advances_time () =
  let scn = async_scenario () in
  let woke = ref (-1) in
  run_fiber scn "sleeper" (fun () ->
      Harness.Scenario.sleep scn 123;
      woke := Sim.Vtime.to_int (Harness.Scenario.now scn));
  check_int "slept" 123 !woke

let test_sync_delay_validation () =
  let params =
    Params.create_exn ~n:4 ~f:1 ~mode:(Params.Sync { max_delay = 5; slack = 1 }) ()
  in
  (* A scripted link is checked as it draws: the writer's first broadcast
     draws a delay on every request link. *)
  let write ~slow =
    let scn =
      Harness.Scenario.create ~params
        ~link_delay:(fun ~client:_ ~server ~to_server:_ _rng ->
          Sim.Link.fixed (if server = 2 then slow else 5))
        ()
    in
    let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
    Harness.Scenario.run_jobs scn
      [ ("w", fun () -> ignore (Swsr_regular.write w (int_value 1))) ]
  in
  Alcotest.(check (list string)) "delays within max_delay run" [] (write ~slow:5);
  Alcotest.check_raises "delays beyond max_delay rejected"
    (Invalid_argument "Scenario.create: sync delays exceed the model's max_delay")
    (fun () -> ignore (write ~slow:50))

let test_message_accounting () =
  let scn = async_scenario () in
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  run_fiber scn "w" (fun () -> ignore (Swsr_regular.write w (int_value 1)));
  (* WRITE to 9 servers + 9 acks + NEW_HELP_VAL to 9 servers. *)
  check_int "messages counted" 27 (Harness.Scenario.messages_sent scn);
  check_int "broadcasts counted" 2 (Harness.Scenario.broadcasts scn)

let test_watchdog_diagnoses_deadlock () =
  (* A job parked on a mailbox nobody feeds: the engine drains, and the
     watchdog must name the stuck fiber and what it blocks on instead of
     letting the harness report a silent success. *)
  let scn = async_scenario () in
  let mb = Sim.Mailbox.create () in
  let handles =
    [
      ("starved", Sim.Fiber.spawn ~name:"starved" (fun () ->
           ignore (Sim.Mailbox.recv mb)));
      ("fine", Sim.Fiber.spawn ~name:"fine" (fun () ->
           Harness.Scenario.sleep scn 5));
    ]
  in
  Harness.Scenario.run scn;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (match Harness.Scenario.stuck_jobs handles with
  | [ s ] ->
    check_true "names the job" (contains s "starved");
    check_true "names the block label" (contains s "Mailbox.recv")
  | other -> Alcotest.failf "expected 1 stuck job, got %d" (List.length other));
  (try
     Harness.Scenario.check_jobs handles;
     Alcotest.fail "check_jobs must raise Deadlock"
   with Harness.Scenario.Deadlock msg ->
     check_true "deadlock message lists the fiber" (contains msg "starved"));
  Sim.Mailbox.push mb ()

(* A job that raised did not finish either: it is reported with its
   exception, so a run cannot read as clean or converged over it. *)
exception Boom

let test_stuck_jobs_names_raised () =
  let scn = async_scenario () in
  let handles =
    [
      ("boom", Sim.Fiber.spawn ~name:"boom" (fun () ->
           Harness.Scenario.sleep scn 3;
           raise Boom));
      ("fine", Sim.Fiber.spawn ~name:"fine" (fun () ->
           Harness.Scenario.sleep scn 1));
    ]
  in
  (match Harness.Scenario.run scn with
  | () -> Alcotest.fail "the job's exception must reach run"
  | exception Boom -> ());
  Alcotest.(check (list string))
    "the raising job, with its exception"
    [ Printf.sprintf "boom (raised: %s)" (Printexc.to_string Boom) ]
    (Harness.Scenario.stuck_jobs handles)

let tests =
  [
    case "deterministic replay" test_deterministic_replay;
    case "fault targets registered" test_fault_targets_registered;
    case "port targets registered" test_register_port_targets;
    case "record ok/failure" test_record_success_and_failure;
    case "sleep" test_sleep_advances_time;
    case "sync delay validation" test_sync_delay_validation;
    case "message accounting" test_message_accounting;
    case "watchdog diagnoses deadlock" test_watchdog_diagnoses_deadlock;
    case "stuck jobs name a job that raised" test_stuck_jobs_names_raised;
  ]
