open Util

let mk () = Sim.Engine.create ~rng:(Sim.Rng.create 1) ()

let test_time_advances () =
  let e = mk () in
  let fired = ref [] in
  Sim.Engine.schedule e ~delay:10 (fun () ->
      fired := Sim.Vtime.to_int (Sim.Engine.now e) :: !fired);
  Sim.Engine.schedule e ~delay:5 (fun () ->
      fired := Sim.Vtime.to_int (Sim.Engine.now e) :: !fired);
  Sim.Engine.run e;
  check_true "fired in time order" (List.rev !fired = [ 5; 10 ]);
  check_int "clock at last event" 10 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_same_time_fifo () =
  let e = mk () in
  let order = ref [] in
  for i = 1 to 5 do
    Sim.Engine.schedule e ~delay:3 (fun () -> order := i :: !order)
  done;
  Sim.Engine.run e;
  check_true "scheduling order preserved" (List.rev !order = [ 1; 2; 3; 4; 5 ])

let test_nested_scheduling () =
  let e = mk () in
  let log = ref [] in
  Sim.Engine.schedule e ~delay:1 (fun () ->
      log := "outer" :: !log;
      Sim.Engine.schedule e ~delay:2 (fun () -> log := "inner" :: !log));
  Sim.Engine.run e;
  check_true "nested fires" (List.rev !log = [ "outer"; "inner" ]);
  check_int "clock" 3 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_until () =
  let e = mk () in
  let fired = ref 0 in
  Sim.Engine.schedule e ~delay:5 (fun () -> incr fired);
  Sim.Engine.schedule e ~delay:15 (fun () -> incr fired);
  Sim.Engine.run ~until:(Sim.Vtime.of_int 10) e;
  check_int "only first fired" 1 !fired;
  check_int "clock parked at until" 10 (Sim.Vtime.to_int (Sim.Engine.now e));
  Sim.Engine.run e;
  check_int "remainder fires" 2 !fired

let test_until_inclusive () =
  let e = mk () in
  let fired = ref false in
  Sim.Engine.schedule e ~delay:10 (fun () -> fired := true);
  Sim.Engine.run ~until:(Sim.Vtime.of_int 10) e;
  check_true "event at the deadline fires" !fired

let test_max_events () =
  let e = mk () in
  let fired = ref 0 in
  for _ = 1 to 10 do
    Sim.Engine.schedule e ~delay:1 (fun () -> incr fired)
  done;
  Sim.Engine.run ~max_events:4 e;
  check_int "bounded" 4 !fired

let test_past_schedule_clamped () =
  let e = mk () in
  let at = ref (-1) in
  Sim.Engine.schedule e ~delay:5 (fun () ->
      Sim.Engine.schedule_at e Sim.Vtime.zero (fun () ->
          at := Sim.Vtime.to_int (Sim.Engine.now e)));
  Sim.Engine.run e;
  check_int "past event fires now" 5 !at

let test_negative_delay_clamped () =
  let e = mk () in
  let fired = ref false in
  Sim.Engine.schedule e ~delay:(-3) (fun () -> fired := true);
  Sim.Engine.run e;
  check_true "fires at current time" !fired;
  check_int "no time travel" 0 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_quiescent () =
  let e = mk () in
  check_true "initially quiescent" (Sim.Engine.quiescent e);
  Sim.Engine.schedule e ~delay:1 ignore;
  check_false "pending event" (Sim.Engine.quiescent e);
  check_int "pending count" 1 (Sim.Engine.pending e);
  Sim.Engine.run e;
  check_true "quiescent after run" (Sim.Engine.quiescent e)

(* A workload with same-instant collisions and nested scheduling, fired
   two ways: the classic [run] loop and iterated [step].  Both must
   produce the same firing order and final clock. *)
let test_run_equals_iterated_step () =
  let execute drive =
    let e = mk () in
    let log = ref [] in
    let fire tag () =
      log := (tag, Sim.Vtime.to_int (Sim.Engine.now e)) :: !log
    in
    for i = 1 to 5 do
      Sim.Engine.schedule e ~delay:(i mod 3) (fun () ->
          fire (Printf.sprintf "a%d" i) ();
          if i mod 2 = 0 then
            Sim.Engine.schedule e ~delay:i (fire (Printf.sprintf "b%d" i)))
    done;
    Sim.Engine.schedule e ~delay:2 (fire "c");
    drive e;
    (List.rev !log, Sim.Vtime.to_int (Sim.Engine.now e))
  in
  let via_run = execute Sim.Engine.run in
  let via_step = execute (fun e -> while Sim.Engine.step e do () done) in
  check_true "same firing order and final clock" (via_run = via_step)

let test_step_empty () =
  let e = mk () in
  check_false "step on empty queue" (Sim.Engine.step e);
  check_int "clock untouched" 0 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_ready_snapshot () =
  let e = mk () in
  Sim.Engine.schedule ~label:"b" e ~delay:2 ignore;
  Sim.Engine.schedule ~label:"a" e ~delay:1 ignore;
  Sim.Engine.schedule ~label:"c" e ~delay:1 ignore;
  let rs = Sim.Engine.ready e in
  let labels = List.map (fun (r : Sim.Engine.ready_event) -> r.r_label) rs in
  check_true "(time, seq) order: a and c tie on time, a was first"
    (labels = [ "a"; "c"; "b" ]);
  check_int "snapshot does not consume" 3 (Sim.Engine.pending e);
  check_true "ready is stable" (Sim.Engine.ready e = rs)

let test_fire_out_of_order () =
  let e = mk () in
  let order = ref [] in
  Sim.Engine.schedule ~label:"x" e ~delay:5 (fun () -> order := "x" :: !order);
  Sim.Engine.schedule ~label:"y" e ~delay:1 (fun () -> order := "y" :: !order);
  let seq_of label =
    (List.find
       (fun (r : Sim.Engine.ready_event) -> String.equal r.r_label label)
       (Sim.Engine.ready e))
      .r_seq
  in
  check_true "fire the later event first" (Sim.Engine.fire e ~seq:(seq_of "x"));
  check_int "clock jumps to it" 5 (Sim.Vtime.to_int (Sim.Engine.now e));
  check_true "fire the earlier event" (Sim.Engine.fire e ~seq:(seq_of "y"));
  check_int "clock never rewinds" 5 (Sim.Vtime.to_int (Sim.Engine.now e));
  check_false "unknown seq refused" (Sim.Engine.fire e ~seq:9999);
  check_true "both fired, chosen order" (List.rev !order = [ "x"; "y" ])

(* [fire_labeled] must pick exactly the event the model checker used to
   find by scanning the sorted [ready] snapshot: the (time, seq)-least
   one carrying the label, i.e. the link's FIFO head.  Two engines get
   the same schedule (same-instant ties, out-of-order instants, labels
   reused, events that schedule more events) and the same seeded label
   picks; one fires through [ready] + [fire ~seq], the other through
   [fire_labeled].  Firing logs and clocks must agree step for step. *)
let test_fire_labeled_matches_ready_scan () =
  let labels = [| "link:a"; "link:b"; "link:c"; "" |] in
  let build () =
    let e = mk () in
    let log = ref [] in
    let ev tag () = log := (tag, Sim.Vtime.to_int (Sim.Engine.now e)) :: !log in
    List.iteri
      (fun i (label, delay) ->
        Sim.Engine.schedule ~label e ~delay (fun () ->
            ev (Printf.sprintf "%s#%d" label i) ();
            if i mod 3 = 0 then
              Sim.Engine.schedule ~label e ~delay:(i mod 4)
                (ev (Printf.sprintf "%s#%d'" label i))))
      [
        ("link:a", 3); ("link:b", 1); ("link:a", 1); ("link:c", 2);
        ("link:b", 1); ("", 1); ("link:a", 3); ("link:c", 0);
        ("link:b", 5); ("link:a", 2);
      ];
    (e, log)
  in
  let via_ready e label =
    match
      List.find_opt
        (fun (r : Sim.Engine.ready_event) -> String.equal r.r_label label)
        (Sim.Engine.ready e)
    with
    | None -> false
    | Some r ->
      Sim.Engine.advance_to e (Sim.Vtime.add (Sim.Engine.now e) 1);
      Sim.Engine.fire e ~seq:r.r_seq
  in
  let via_label e label =
    Sim.Engine.fire_labeled e ~label
      ~not_before:(Sim.Vtime.add (Sim.Engine.now e) 1)
  in
  let ea, la = build () and eb, lb = build () in
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 60 do
    let label = labels.(Random.State.int st (Array.length labels)) in
    let clock_before = Sim.Engine.now eb in
    let fa = via_ready ea label and fb = via_label eb label in
    check_bool ("same outcome on " ^ label) fa fb;
    if not fb then
      check_true "a miss leaves the clock alone"
        (Sim.Vtime.compare clock_before (Sim.Engine.now eb) = 0);
    check_true "same firing log" (!la = !lb);
    check_int "same clock" (Sim.Vtime.to_int (Sim.Engine.now ea))
      (Sim.Vtime.to_int (Sim.Engine.now eb))
  done;
  check_true "the picks drained the queue" (Sim.Engine.quiescent eb)

let tests =
  [
    case "fire_labeled matches the ready scan"
      test_fire_labeled_matches_ready_scan;
    case "time advances" test_time_advances;
    case "same-time FIFO" test_same_time_fifo;
    case "nested scheduling" test_nested_scheduling;
    case "run until" test_until;
    case "until inclusive" test_until_inclusive;
    case "max events" test_max_events;
    case "past schedule clamped" test_past_schedule_clamped;
    case "negative delay clamped" test_negative_delay_clamped;
    case "quiescence" test_quiescent;
    case "run equals iterated step" test_run_equals_iterated_step;
    case "step on empty queue" test_step_empty;
    case "ready snapshot" test_ready_snapshot;
    case "fire out of order" test_fire_out_of_order;
  ]
