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

(* The bucket window must never start past the clock.  A [run ~until]
   that stops short of the next event leaves the clock behind it; an
   event scheduled after that, earlier than the stranded one, must still
   fire first and at its own instant. *)
let test_until_then_earlier () =
  let e = mk () in
  let log = ref [] in
  let at tag () = log := (tag, Sim.Vtime.to_int (Sim.Engine.now e)) :: !log in
  Sim.Engine.schedule e ~delay:100 (at "late");
  Sim.Engine.run ~until:(Sim.Vtime.of_int 10) e;
  Sim.Engine.schedule e ~delay:5 (at "early");
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "early at 15, then late at 100"
    [ ("early", 15); ("late", 100) ]
    (List.rev !log)

(* --- The queue against a reference model ------------------------------ *)

(* A random program of engine calls runs against the engine and against
   the simplest pending set that could be right: a list sorted by
   (time, seq).  After every call the firing logs, the clocks, [ready]
   and [pending] must agree, and a final [run] must drain both alike.
   Delays reach far past the engine's bucket window, small ones collide
   on the same instant, and a fired event may schedule one more. *)

type op =
  | Schedule of { delay : int; label : string; child : int option }
  | Schedule_at of { offset : int; label : string }  (** from the clock; may be past *)
  | Step
  | Run_until of int  (** ticks past the clock *)
  | Run_max of int
  | Fire of int  (** index into [ready]; past its end, a seq nobody holds *)
  | Fire_labeled of { label : string; gap : int }  (** [not_before] past the clock *)
  | Advance of int

let show_op = function
  | Schedule { delay; label; child } ->
    Printf.sprintf "schedule %d %S%s" delay label
      (match child with Some c -> Printf.sprintf " then %d" c | None -> "")
  | Schedule_at { offset; label } -> Printf.sprintf "schedule_at %+d %S" offset label
  | Step -> "step"
  | Run_until k -> Printf.sprintf "run ~until:+%d" k
  | Run_max k -> Printf.sprintf "run ~max_events:%d" k
  | Fire i -> Printf.sprintf "fire #%d" i
  | Fire_labeled { label; gap } -> Printf.sprintf "fire_labeled %S +%d" label gap
  | Advance k -> Printf.sprintf "advance_to +%d" k

type mevent = { m_time : int; m_seq : int; m_label : string; m_child : int option }

type model = {
  mutable clock : int;
  mutable next_seq : int;
  mutable queue : mevent list;  (** sorted by (time, seq) *)
  mutable log : (int * int) list;  (** (seq, instant) per firing, newest first *)
}

let m_schedule m ~time ~label ~child =
  let ev =
    { m_time = max time m.clock; m_seq = m.next_seq; m_label = label; m_child = child }
  in
  m.next_seq <- m.next_seq + 1;
  (* The newest seq goes after every event of its instant. *)
  let rec insert = function
    | e :: rest when e.m_time <= ev.m_time -> e :: insert rest
    | later -> ev :: later
  in
  m.queue <- insert m.queue

let m_fire m ev =
  m.queue <- List.filter (fun e -> e.m_seq <> ev.m_seq) m.queue;
  m.clock <- max m.clock ev.m_time;
  m.log <- (ev.m_seq, m.clock) :: m.log;
  Option.iter
    (fun d -> m_schedule m ~time:(m.clock + d) ~label:ev.m_label ~child:None)
    ev.m_child

let m_run m ?until ~max_events () =
  let due ev = match until with Some u -> ev.m_time <= u | None -> true in
  let fired = ref 0 in
  let rec loop () =
    match m.queue with
    | ev :: _ when !fired < max_events && due ev ->
      incr fired;
      m_fire m ev;
      loop ()
    | _ -> ()
  in
  loop ();
  match until with
  | Some u when m.clock < u && !fired < max_events -> m.clock <- u
  | _ -> ()

let m_take m pred =
  match List.find_opt pred m.queue with
  | None -> false
  | Some ev ->
    m_fire m ev;
    true

(* The engine side tags each event with the seq the model gives it; the
   [ready] comparison checks that the engine agrees. *)
type real = { e : Sim.Engine.t; mutable tag : int; mutable r_log : (int * int) list }

let rec r_schedule r ~label ~child sched =
  let tag = r.tag in
  r.tag <- tag + 1;
  sched ~label r.e (fun () ->
      r.r_log <- (tag, Sim.Vtime.to_int (Sim.Engine.now r.e)) :: r.r_log;
      Option.iter
        (fun d ->
          r_schedule r ~label ~child:None (fun ~label e ->
              Sim.Engine.schedule ~label e ~delay:d))
        child)

let apply r m op =
  let vt = Sim.Vtime.of_int in
  match op with
  | Schedule { delay; label; child } ->
    r_schedule r ~label ~child (fun ~label e -> Sim.Engine.schedule ~label e ~delay);
    m_schedule m ~time:(m.clock + delay) ~label ~child;
    true
  | Schedule_at { offset; label } ->
    let at = max 0 (m.clock + offset) in
    r_schedule r ~label ~child:None (fun ~label e ->
        Sim.Engine.schedule_at ~label e (vt at));
    m_schedule m ~time:at ~label ~child:None;
    true
  | Step ->
    let fired = Sim.Engine.step r.e in
    Bool.equal fired (m_take m (fun _ -> true))
  | Run_until k ->
    let until = m.clock + k in
    Sim.Engine.run ~until:(vt until) r.e;
    m_run m ~until ~max_events:max_int ();
    true
  | Run_max k ->
    Sim.Engine.run ~max_events:k r.e;
    m_run m ~max_events:k ();
    true
  | Fire i ->
    let seq =
      match List.nth_opt m.queue i with Some ev -> ev.m_seq | None -> m.next_seq + i
    in
    let fired = Sim.Engine.fire r.e ~seq in
    Bool.equal fired (m_take m (fun ev -> ev.m_seq = seq))
  | Fire_labeled { label; gap } ->
    let not_before = m.clock + gap in
    let fired = Sim.Engine.fire_labeled r.e ~label ~not_before:(vt not_before) in
    let pred ev = String.equal ev.m_label label in
    if List.exists pred m.queue then m.clock <- max m.clock not_before;
    Bool.equal fired (m_take m pred)
  | Advance k ->
    Sim.Engine.advance_to r.e (vt (m.clock + k));
    m.clock <- m.clock + k;
    true

let agree r m =
  let log_equal = List.equal (fun (a, b) (c, d) -> Int.equal a c && Int.equal b d) in
  log_equal r.r_log m.log
  && Int.equal (Sim.Vtime.to_int (Sim.Engine.now r.e)) m.clock
  && Int.equal (Sim.Engine.pending r.e) (List.length m.queue)
  && Bool.equal (Sim.Engine.quiescent r.e) (List.is_empty m.queue)
  && List.equal
       (fun (t1, s1, l1) (t2, s2, l2) ->
         Int.equal t1 t2 && Int.equal s1 s2 && String.equal l1 l2)
       (List.map
          (fun (x : Sim.Engine.ready_event) ->
            (Sim.Vtime.to_int x.r_time, x.r_seq, x.r_label))
          (Sim.Engine.ready r.e))
       (List.map (fun ev -> (ev.m_time, ev.m_seq, ev.m_label)) m.queue)

let gen_op =
  let open QCheck.Gen in
  let delay =
    frequency
      [
        (6, int_range (-2) 12); (2, int_range 55 75); (1, int_range 100 300);
        (1, int_range 0 1000);
      ]
  in
  let label = oneofl [ ""; "a"; "b" ] in
  frequency
    [
      ( 8,
        map3
          (fun delay label child -> Schedule { delay; label; child })
          delay label (opt delay) );
      ( 2,
        map2
          (fun offset label -> Schedule_at { offset; label })
          (int_range (-20) 200) label );
      (3, return Step);
      (2, map (fun k -> Run_until k) (int_range 0 300));
      (2, map (fun k -> Run_max k) (int_range 0 6));
      (2, map (fun i -> Fire i) (int_range 0 8));
      (2, map2 (fun label gap -> Fire_labeled { label; gap }) label (int_range 0 3));
      (1, map (fun k -> Advance k) (int_range 0 200));
    ]

let prop_queue_matches_model =
  QCheck.Test.make ~name:"queue matches a sorted model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 80) gen_op))
    (fun ops ->
      let r = { e = mk (); tag = 0; r_log = [] } in
      let m = { clock = 0; next_seq = 0; queue = []; log = [] } in
      List.iteri
        (fun i op ->
          if not (apply r m op && agree r m) then
            QCheck.Test.fail_reportf "diverged at op %d (%s)" i (show_op op))
        ops;
      Sim.Engine.run r.e;
      m_run m ~max_events:max_int ();
      agree r m)

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
    case "until, then an earlier event" test_until_then_earlier;
    qcheck prop_queue_matches_model;
  ]
