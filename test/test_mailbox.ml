open Util

let check_opt = Alcotest.(check (option int))

let check_list = Alcotest.(check (list int))

let test_queueing_order () =
  let mb = Sim.Mailbox.create () in
  Sim.Mailbox.push mb 1;
  Sim.Mailbox.push mb 2;
  check_int "queued" 2 (Sim.Mailbox.length mb);
  let got = ref [] in
  let _h =
    Sim.Fiber.spawn (fun () ->
        let first = Sim.Mailbox.recv mb in
        let second = Sim.Mailbox.recv mb in
        got := [ first; second ])
  in
  check_list "FIFO order" [ 1; 2 ] !got

let test_blocking_recv () =
  let mb = Sim.Mailbox.create () in
  let got = ref 0 in
  let h = Sim.Fiber.spawn (fun () -> got := Sim.Mailbox.recv mb) in
  check_true "blocked" (Sim.Fiber.status h = Sim.Fiber.Running);
  Sim.Mailbox.push mb 7;
  check_int "woken with value" 7 !got;
  check_true "done" (Sim.Fiber.status h = Sim.Fiber.Done)

let test_double_wait_rejected () =
  let mb = Sim.Mailbox.create () in
  let _h1 = Sim.Fiber.spawn (fun () -> ignore (Sim.Mailbox.recv mb)) in
  try
    ignore (Sim.Fiber.spawn (fun () -> ignore (Sim.Mailbox.recv mb)));
    Alcotest.fail "second waiter should be rejected"
  with Invalid_argument _ -> Sim.Mailbox.push mb 0

(* [collect] waiting for a single message: [Some m], or [None] once the
   deadline passed. *)
let first ~engine ~deadline mb =
  let got = ref None in
  if
    Sim.Mailbox.collect ~engine ~deadline:(Some (Sim.Vtime.of_int deadline)) mb
      (fun m ->
        got := Some m;
        true)
  then !got
  else None

let test_recv_until_timeout () =
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  let mb = Sim.Mailbox.create () in
  let result = ref (Some 99) in
  run_engine_fiber e (fun () -> result := first ~engine:e ~deadline:10 mb);
  check_opt "timed out with None" None !result;
  check_int "time advanced to deadline" 10 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_recv_until_message_first () =
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.schedule e ~delay:3 (fun () -> Sim.Mailbox.push mb 5);
  let result = ref None in
  run_engine_fiber e (fun () -> result := first ~engine:e ~deadline:10 mb);
  check_opt "message won the race" (Some 5) !result

let test_recv_until_deadline_is_now () =
  (* Boundary: a deadline equal to the current instant still yields a
     timeout event at that same instant — the wait gives up without the
     clock moving, rather than blocking forever or raising. *)
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  Sim.Engine.schedule e ~delay:10 ignore;
  Sim.Engine.run e;
  check_int "clock at 10" 10 (Sim.Vtime.to_int (Sim.Engine.now e));
  let mb = Sim.Mailbox.create () in
  let result = ref (Some 99) in
  run_engine_fiber e (fun () -> result := first ~engine:e ~deadline:10 mb);
  check_opt "immediate timeout" None !result;
  check_int "clock unchanged" 10 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_recv_until_deadline_in_past () =
  (* Boundary: a deadline already behind the clock is clamped to "now"
     by the engine, so the wait times out at the current instant instead
     of dying in the queue with a stale timestamp. *)
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  Sim.Engine.schedule e ~delay:20 ignore;
  Sim.Engine.run e;
  let mb = Sim.Mailbox.create () in
  let result = ref (Some 99) in
  run_engine_fiber e (fun () -> result := first ~engine:e ~deadline:5 mb);
  check_opt "past deadline times out" None !result;
  check_int "clock did not rewind" 20 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_recv_until_queued_message_beats_past_deadline () =
  (* Even with an expired deadline, an already-queued message wins: the
     queue is drained before any timer is armed. *)
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  Sim.Engine.schedule e ~delay:20 ignore;
  Sim.Engine.run e;
  let mb = Sim.Mailbox.create () in
  Sim.Mailbox.push mb 42;
  let result = ref None in
  run_engine_fiber e (fun () -> result := first ~engine:e ~deadline:5 mb);
  check_opt "queued message delivered" (Some 42) !result;
  check_true "no timer armed" (Sim.Engine.quiescent e)

let test_stale_timer_does_not_clobber () =
  (* After a timeout, the same fiber immediately waits again; the expired
     deadline must not disturb the second wait. *)
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.schedule e ~delay:20 (fun () -> Sim.Mailbox.push mb 8);
  let first_wait = ref (Some 0) and second = ref None in
  run_engine_fiber e (fun () ->
      first_wait := first ~engine:e ~deadline:5 mb;
      second := first ~engine:e ~deadline:50 mb);
  check_opt "first timed out" None !first_wait;
  check_opt "second got the message" (Some 8) !second

let test_message_after_timeout_stays_queued () =
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.schedule e ~delay:20 (fun () -> Sim.Mailbox.push mb 3);
  let result = ref (Some 0) in
  run_engine_fiber e (fun () -> result := first ~engine:e ~deadline:5 mb);
  check_opt "timed out" None !result;
  check_int "late message queued, not lost" 1 (Sim.Mailbox.length mb)

(* A wait for two messages with deadline 10; one arrives at 3.  An event
   scheduled for instant 10 after the wait began must fire before the
   deadline: the arrival re-armed it with a later seq, exactly where a
   fresh timer scheduled at 3 would sit.  Without the arrival, the
   deadline armed first fires first. *)
let test_collect_rearm_order () =
  let order ~arrival =
    let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
    let mb = Sim.Mailbox.create () in
    let log = ref [] in
    let seen = ref 0 in
    let h =
      Sim.Fiber.spawn (fun () ->
          let full =
            Sim.Mailbox.collect ~engine:e ~deadline:(Some (Sim.Vtime.of_int 10)) mb
              (fun () ->
                incr seen;
                !seen >= 2)
          in
          log := (if full then "full" else "deadline") :: !log)
    in
    Sim.Engine.schedule_at e (Sim.Vtime.of_int 10) (fun () -> log := "other" :: !log);
    if arrival then Sim.Engine.schedule e ~delay:3 (fun () -> Sim.Mailbox.push mb ());
    check_int "one timer, whatever arrives" (if arrival then 3 else 2)
      (Sim.Engine.pending e);
    Sim.Engine.run e;
    check_true "finished" (Sim.Fiber.status h = Sim.Fiber.Done);
    check_int "a deadline fires at its instant" 10 (Sim.Vtime.to_int (Sim.Engine.now e));
    List.rev !log
  in
  Alcotest.(check (list string)) "unrearmed deadline first" [ "deadline"; "other" ]
    (order ~arrival:false);
  Alcotest.(check (list string)) "re-armed deadline after" [ "other"; "deadline" ]
    (order ~arrival:true)

(* A finished wait leaves its deadline queued.  A later wait with an
   earlier deadline (10) gets a timer of its own; the settled one, still
   due at 50, is not dropped and fires inert in the middle of the third
   wait, which runs until its message at 55. *)
let test_collect_settled_deadline_kept () =
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.schedule e ~delay:3 (fun () -> Sim.Mailbox.push mb 1);
  let a = ref None and b = ref (Some 0) and c = ref None and ends = ref [] in
  let stamp () = ends := Sim.Vtime.to_int (Sim.Engine.now e) :: !ends in
  Sim.Engine.schedule e ~delay:55 (fun () -> Sim.Mailbox.push mb 2);
  run_engine_fiber e (fun () ->
      a := first ~engine:e ~deadline:50 mb;
      stamp ();
      b := first ~engine:e ~deadline:10 mb;
      stamp ();
      c := first ~engine:e ~deadline:60 mb;
      stamp ());
  check_opt "first got its message" (Some 1) !a;
  check_opt "second timed out" None !b;
  check_opt "third got its message" (Some 2) !c;
  Alcotest.(check (list int)) "each wait ended on time" [ 3; 10; 55 ] (List.rev !ends);
  check_int "the run ends at the last deadline" 60
    (Sim.Vtime.to_int (Sim.Engine.now e));
  (* Without the third wait the settled deadline is the run's last event. *)
  let e = Sim.Engine.create ~rng:(Sim.Rng.create 1) () in
  let mb = Sim.Mailbox.create () in
  Sim.Engine.schedule e ~delay:3 (fun () -> Sim.Mailbox.push mb 1);
  run_engine_fiber e (fun () ->
      ignore (first ~engine:e ~deadline:50 mb);
      ignore (first ~engine:e ~deadline:10 mb));
  check_int "the settled deadline still ends the run" 50
    (Sim.Vtime.to_int (Sim.Engine.now e))

let test_drain () =
  let mb = Sim.Mailbox.create () in
  List.iter (Sim.Mailbox.push mb) [ 1; 2; 3 ];
  check_list "drain order" [ 1; 2; 3 ] (Sim.Mailbox.drain mb);
  check_int "emptied" 0 (Sim.Mailbox.length mb)

let tests =
  [
    case "queueing order" test_queueing_order;
    case "blocking recv" test_blocking_recv;
    case "double wait rejected" test_double_wait_rejected;
    case "recv_until timeout" test_recv_until_timeout;
    case "recv_until message first" test_recv_until_message_first;
    case "recv_until deadline == now" test_recv_until_deadline_is_now;
    case "recv_until deadline in past" test_recv_until_deadline_in_past;
    case "recv_until queued beats past deadline"
      test_recv_until_queued_message_beats_past_deadline;
    case "stale timer" test_stale_timer_does_not_clobber;
    case "late message queued" test_message_after_timeout_stays_queued;
    case "collect re-arms its deadline in place" test_collect_rearm_order;
    case "collect keeps a settled deadline" test_collect_settled_deadline_kept;
    case "drain" test_drain;
  ]
