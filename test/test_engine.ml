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

let test_step_order () =
  let e = mk () in
  let order = ref [] in
  let fire tag () = order := tag :: !order in
  Sim.Engine.schedule e ~delay:2 (fire "b");
  Sim.Engine.schedule e ~delay:1 (fire "a");
  Sim.Engine.schedule e ~delay:1 (fire "c");
  check_int "scheduling consumes nothing" 3 (Sim.Engine.pending e);
  while Sim.Engine.step e do () done;
  Alcotest.(check (list string))
    "(time, seq) order: a and c tie on time, a was first" [ "a"; "c"; "b" ]
    (List.rev !order)

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
   (time, seq).  After every call the firing logs, the clocks and
   [pending] must agree, and a final [run] must drain both alike, so
   every queued event's (time, seq) place shows in the firing log.
   Delays reach far past the engine's bucket window, small ones collide
   on the same instant, and a fired event may schedule one more.  Three
   timers are armed, re-armed and cancelled among the events: a timer is
   one model event that leaves the list before it is queued again.  Two
   recurring actions are queued among them too; each firing logs the
   action, not a seq, and the second one queues the first 3 ticks on. *)

type op =
  | Schedule of { delay : int; child : int option }
  | Schedule_at of int  (** from the clock; may be past *)
  | Step
  | Run_until of int  (** ticks past the clock *)
  | Run_max of int
  | Arm of { timer : int; offset : int }  (** from the clock; may be past *)
  | Rearm of int  (** at the instant the timer is due *)
  | Cancel of int
  | Recur of { action : int; delay : int }
  | Recur_at of { action : int; offset : int }  (** from the clock; may be past *)

let show_op = function
  | Schedule { delay; child } ->
    Printf.sprintf "schedule %d%s" delay
      (match child with Some c -> Printf.sprintf " then %d" c | None -> "")
  | Schedule_at offset -> Printf.sprintf "schedule_at %+d" offset
  | Step -> "step"
  | Run_until k -> Printf.sprintf "run ~until:+%d" k
  | Run_max k -> Printf.sprintf "run ~max_events:%d" k
  | Arm { timer; offset } -> Printf.sprintf "arm timer %d at %+d" timer offset
  | Rearm i -> Printf.sprintf "re-arm timer %d" i
  | Cancel i -> Printf.sprintf "cancel timer %d" i
  | Recur { action; delay } -> Printf.sprintf "recurring %d after %d" action delay
  | Recur_at { action; offset } -> Printf.sprintf "recurring %d at %+d" action offset

type mevent = {
  m_time : int;
  m_seq : int;
  m_child : int option;
  m_timer : int;  (** the timer it is, or -1 *)
  m_recur : int;  (** the recurring action it is, or -1 *)
}

type model = {
  mutable clock : int;
  mutable next_seq : int;
  mutable queue : mevent list;  (** sorted by (time, seq) *)
  mutable log : (int * int) list;  (** (seq, instant) per firing, newest first *)
  due : int array;  (** per timer: the instant last armed for *)
}

let timers = 3

(* Recurring action 1 queues action 0 this many ticks after it fires. *)
let recur_child_delay = 3

(* What a firing logs in place of a seq: the firings of one recurring
   action are interchangeable. *)
let recur_mark action = -1 - action

let m_schedule ?(timer = -1) ?(recur = -1) m ~time ~child =
  let ev =
    { m_time = max time m.clock; m_seq = m.next_seq; m_child = child; m_timer = timer; m_recur = recur }
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
  m.log <- ((if ev.m_recur < 0 then ev.m_seq else recur_mark ev.m_recur), m.clock) :: m.log;
  Option.iter (fun d -> m_schedule m ~time:(m.clock + d) ~child:None) ev.m_child;
  if ev.m_recur = 1 then
    m_schedule ~recur:0 m ~time:(m.clock + recur_child_delay) ~child:None

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

let m_step m =
  match m.queue with
  | [] -> false
  | ev :: _ ->
    m_fire m ev;
    true

let m_cancel m i = m.queue <- List.filter (fun e -> e.m_timer <> i) m.queue

let m_arm m i time =
  m_cancel m i;
  m.due.(i) <- max time m.clock;
  m_schedule ~timer:i m ~time ~child:None

(* The engine side tags each event with the seq the model gives it, so
   the firing logs compare directly.  A timer logs the tag of its latest
   arming. *)
type real = {
  e : Sim.Engine.t;
  mutable tag : int;
  mutable r_log : (int * int) list;
  mutable r_timers : Sim.Engine.timer array;
  timer_tag : int array;
  mutable r_recur : Sim.Engine.recurring array;
}

let real () =
  let r =
    {
      e = mk ();
      tag = 0;
      r_log = [];
      r_timers = [||];
      timer_tag = Array.make timers (-1);
      r_recur = [||];
    }
  in
  let log tag = r.r_log <- (tag, Sim.Vtime.to_int (Sim.Engine.now r.e)) :: r.r_log in
  r.r_timers <- Array.init timers (fun i -> Sim.Engine.timer r.e (fun () -> log r.timer_tag.(i)));
  let first = Sim.Engine.recurring r.e (fun () -> log (recur_mark 0)) in
  let second =
    Sim.Engine.recurring r.e (fun () ->
        log (recur_mark 1);
        r.tag <- r.tag + 1;
        Sim.Engine.schedule_recurring r.e ~delay:recur_child_delay first)
  in
  r.r_recur <- [| first; second |];
  r

(* A recurring action has no tag, but takes a seq like any event. *)
let r_recur r sched =
  r.tag <- r.tag + 1;
  sched r.e

let r_arm r i time =
  r.timer_tag.(i) <- r.tag;
  r.tag <- r.tag + 1;
  Sim.Engine.arm r.r_timers.(i) time

let rec r_schedule r ~child sched =
  let tag = r.tag in
  r.tag <- tag + 1;
  sched r.e (r_action r ~child tag)

and r_action r ~child tag () =
  r.r_log <- (tag, Sim.Vtime.to_int (Sim.Engine.now r.e)) :: r.r_log;
  Option.iter
    (fun d -> r_schedule r ~child:None (fun e -> Sim.Engine.schedule e ~delay:d))
    child

let apply r m op =
  let vt = Sim.Vtime.of_int in
  match op with
  | Schedule { delay; child } ->
    r_schedule r ~child (fun e -> Sim.Engine.schedule e ~delay);
    m_schedule m ~time:(m.clock + delay) ~child;
    true
  | Schedule_at offset ->
    let at = max 0 (m.clock + offset) in
    r_schedule r ~child:None (fun e -> Sim.Engine.schedule_at e (vt at));
    m_schedule m ~time:at ~child:None;
    true
  | Step -> Bool.equal (Sim.Engine.step r.e) (m_step m)
  | Run_until k ->
    let until = m.clock + k in
    Sim.Engine.run ~until:(vt until) r.e;
    m_run m ~until ~max_events:max_int ();
    true
  | Run_max k ->
    Sim.Engine.run ~max_events:k r.e;
    m_run m ~max_events:k ();
    true
  | Arm { timer; offset } ->
    let at = max 0 (m.clock + offset) in
    r_arm r timer (vt at);
    m_arm m timer at;
    true
  | Rearm i ->
    r_arm r i (Sim.Engine.due r.r_timers.(i));
    m_arm m i m.due.(i);
    true
  | Cancel i ->
    Sim.Engine.cancel r.r_timers.(i);
    m_cancel m i;
    true
  | Recur { action; delay } ->
    r_recur r (fun e -> Sim.Engine.schedule_recurring e ~delay r.r_recur.(action));
    m_schedule ~recur:action m ~time:(m.clock + delay) ~child:None;
    true
  | Recur_at { action; offset } ->
    let at = max 0 (m.clock + offset) in
    r_recur r (fun e -> Sim.Engine.schedule_recurring_at e (vt at) r.r_recur.(action));
    m_schedule ~recur:action m ~time:at ~child:None;
    true

let agree r m =
  let log_equal = List.equal (fun (a, b) (c, d) -> Int.equal a c && Int.equal b d) in
  log_equal r.r_log m.log
  && Int.equal (Sim.Vtime.to_int (Sim.Engine.now r.e)) m.clock
  && Int.equal (Sim.Engine.pending r.e) (List.length m.queue)
  && Bool.equal (Sim.Engine.quiescent r.e) (List.is_empty m.queue)
  && Array.for_all2
       (fun tm due -> Int.equal (Sim.Vtime.to_int (Sim.Engine.due tm)) due)
       r.r_timers m.due

let gen_op =
  let open QCheck.Gen in
  let delay =
    frequency
      [
        (6, int_range (-2) 12); (2, int_range 55 75); (1, int_range 100 300);
        (1, int_range 0 1000);
      ]
  in
  frequency
    [
      (8, map2 (fun delay child -> Schedule { delay; child }) delay (opt delay));
      (2, map (fun offset -> Schedule_at offset) (int_range (-20) 200));
      (3, return Step);
      (2, map (fun k -> Run_until k) (int_range 0 300));
      (2, map (fun k -> Run_max k) (int_range 0 6));
      ( 3,
        map2
          (fun timer offset -> Arm { timer; offset })
          (int_range 0 (timers - 1))
          (frequency
             [ (6, int_range (-3) 12); (2, int_range 120 140); (1, int_range 200 600) ])
      );
      (2, map (fun i -> Rearm i) (int_range 0 (timers - 1)));
      (1, map (fun i -> Cancel i) (int_range 0 (timers - 1)));
      (4, map2 (fun action delay -> Recur { action; delay }) (int_range 0 1) delay);
      ( 1,
        map2
          (fun action offset -> Recur_at { action; offset })
          (int_range 0 1) (int_range (-20) 200) );
    ]

(* Run [ops] against the engine and the model; [Some (i, op)] names the
   first call after which they disagree. *)
let diverges ops =
  let r = real () in
  let m =
    { clock = 0; next_seq = 0; queue = []; log = []; due = Array.make timers 0 }
  in
  let rec go i = function
    | [] ->
      Sim.Engine.run r.e;
      m_run m ~max_events:max_int ();
      if agree r m then None else Some (i, "final run")
    | op :: rest -> if apply r m op && agree r m then go (i + 1) rest else Some (i, show_op op)
  in
  go 0 ops

let prop_queue_matches_model =
  QCheck.Test.make ~name:"queue matches a sorted model" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 0 80) gen_op))
    (fun ops ->
      match diverges ops with
      | None -> true
      | Some (i, op) -> QCheck.Test.fail_reportf "diverged at op %d (%s)" i op)

(* The timer moves the random programs reach only by chance, each as a
   fixed program checked against the model: a timer that is its bucket's
   only event, its head, its tail; one resident in the overflow; re-arms
   that cross the window's edge both ways. *)
let test_timer_positions () =
  let sched delay = Schedule { delay; child = None } in
  let programs =
    [
      ("only event, cancelled", [ Arm { timer = 0; offset = 5 }; Cancel 0; Step ]);
      ("only event, re-armed", [ Arm { timer = 0; offset = 5 }; Rearm 0; Step ]);
      ( "head, re-armed behind the bucket",
        [ Arm { timer = 0; offset = 5 }; sched 5; sched 5; Rearm 0; Step; Step ] );
      ("head, cancelled", [ Arm { timer = 0; offset = 5 }; sched 5; Cancel 0; Step ]);
      ( "middle, cancelled",
        [ sched 5; Arm { timer = 0; offset = 5 }; sched 5; Cancel 0; Step; Step ] );
      ("tail, cancelled", [ sched 5; sched 5; Arm { timer = 0; offset = 5 }; Cancel 0 ]);
      ("tail, re-armed", [ sched 5; Arm { timer = 0; offset = 5 }; Rearm 0; Step ]);
      ( "two timers in one bucket",
        [ Arm { timer = 0; offset = 3 }; Arm { timer = 1; offset = 3 }; Rearm 0; Cancel 1 ] );
      ( "overflow resident",
        [ Arm { timer = 0; offset = 400 }; sched 400; Rearm 0; Cancel 0; Step ] );
      ( "overflow, cancelled among others",
        [ sched 300; Arm { timer = 0; offset = 300 }; sched 300; Cancel 0 ] );
      ( "re-armed into the window",
        [ Arm { timer = 0; offset = 300 }; Arm { timer = 0; offset = 5 }; Step ] );
      ( "re-armed out of the window",
        [ Arm { timer = 0; offset = 5 }; Arm { timer = 0; offset = 300 }; Step ] );
      ( "window moves under an overflow timer",
        [ Arm { timer = 0; offset = 130 }; sched 100; Step; Rearm 0; Step ] );
      ( "fired, then armed again",
        [ Arm { timer = 0; offset = 2 }; Step; Rearm 0; Arm { timer = 0; offset = 7 } ] );
      ("armed in the past", [ Run_until 20; Arm { timer = 2; offset = -10 }; Step ]);
    ]
  in
  List.iter
    (fun (name, ops) ->
      match diverges ops with
      | None -> ()
      | Some (i, op) -> Alcotest.failf "%s: diverged at op %d (%s)" name i op)
    programs

(* --- The slot pool ------------------------------------------------------ *)

(* The engine keeps pending events in a pool of 32 slots that doubles when
   full.  A fixed program, checked against the model like the random
   ones, queues past 32, 64, 128 and 256 pending events (each burst adds
   more than it fires, every seventh event a recurring one), and arms,
   re-arms in place and cancels the three timers around every growth, in
   the ring and in the overflow. *)
let test_pool_growth () =
  let burst k =
    List.init k (fun i ->
        let delay = (i * 37 mod 200) - 2 in
        if i mod 7 = 3 then Recur { action = i mod 2; delay }
        else Schedule { delay; child = (if i mod 5 = 0 then Some (i mod 9) else None) })
  in
  let arm timer offset = Arm { timer; offset } in
  let program =
    List.concat
      [
        [ arm 0 5; arm 1 140; arm 2 8 ];
        burst 40;
        [ Rearm 0; Cancel 1; Step; arm 1 9; Rearm 2 ];
        burst 40;
        [ Rearm 2; Rearm 0; Cancel 2; Step; Step; arm 2 300 ];
        burst 80;
        [ Rearm 1; Cancel 0; arm 0 2; Rearm 2; Step ];
        burst 160;
        [ Rearm 0; Rearm 1; Cancel 2; Run_max 5; arm 2 (-1); Rearm 1 ];
        burst 40;
        [ Run_until 50; Rearm 0; Rearm 2; Cancel 1 ];
      ]
  in
  match diverges program with
  | None -> ()
  | Some (i, op) -> Alcotest.failf "diverged at op %d (%s)" i op

(* Firing frees an event's slot before its action runs, and the next
   event queued (here by that very action) takes it; a cancelled timer's
   slot is taken the same way.  Each event must run its own action, and
   a timer that no longer holds a slot must leave the new owner alone. *)
let test_freed_slot_runs_new_action () =
  let e = mk () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  Sim.Engine.schedule e ~delay:1 (fun () ->
      note "a" ();
      Sim.Engine.schedule e ~delay:0 (note "b"));
  let tm = Sim.Engine.timer e (note "timer") in
  Sim.Engine.arm tm (Sim.Vtime.of_int 2);
  Sim.Engine.cancel tm;
  Sim.Engine.schedule e ~delay:2 (note "c");
  Sim.Engine.arm tm (Sim.Vtime.of_int 3);
  Sim.Engine.run e;
  Sim.Engine.schedule e ~delay:1 (note "d");
  Sim.Engine.cancel tm;
  check_int "the fired timer's cancel leaves d queued" 1 (Sim.Engine.pending e);
  Sim.Engine.arm tm (Sim.Vtime.of_int 4);
  Sim.Engine.run e;
  Alcotest.(check (list string))
    "each event ran its own action, once"
    [ "a"; "b"; "c"; "timer"; "d"; "timer" ]
    (List.rev !log)

(* A slot freed by a closure event is taken by a recurring one and the
   other way round, also from inside the firing action, whose own slot is
   already free: each event must run the action it was queued with.
   The runs are bounded: a slot that kept its old action could loop. *)
let test_freed_slot_changes_kind () =
  let e = mk () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  let r = Sim.Engine.recurring e (note "r") in
  let s =
    Sim.Engine.recurring e (fun () ->
        note "s" ();
        Sim.Engine.schedule e ~delay:0 (note "after s"))
  in
  Sim.Engine.schedule_recurring e ~delay:1 r;
  check_true "r fires" (Sim.Engine.step e);
  Sim.Engine.schedule e ~delay:1 (note "closure");
  check_true "the closure fires" (Sim.Engine.step e);
  Sim.Engine.schedule_recurring e ~delay:1 r;
  Sim.Engine.schedule e ~delay:2 (fun () ->
      note "c" ();
      Sim.Engine.schedule_recurring e ~delay:0 s);
  Sim.Engine.run ~max_events:10 e;
  let tm = Sim.Engine.timer e (note "timer") in
  Sim.Engine.arm tm (Sim.Vtime.of_int 10);
  Sim.Engine.cancel tm;
  Sim.Engine.schedule_recurring_at e (Sim.Vtime.of_int 10) r;
  Sim.Engine.arm tm (Sim.Vtime.of_int 10);
  Sim.Engine.run ~max_events:10 e;
  Alcotest.(check (list string))
    "each event ran its own action, once"
    [ "r"; "closure"; "r"; "c"; "s"; "after s"; "r"; "timer" ]
    (List.rev !log);
  check_true "drained" (Sim.Engine.quiescent e)

(* An action that captures [v], registered in [w] at index [i].  Apart
   from the action, nothing keeps [v] alive. *)
let[@inline never] captured w i =
  let v = ref i in
  Weak.set w i (Some v);
  fun () -> ignore (Sys.opaque_identity !v)

let[@inline never] arm_and_cancel e w =
  let tm = Sim.Engine.timer e (captured w 1) in
  Sim.Engine.arm tm (Sim.Vtime.of_int 5);
  Sim.Engine.cancel tm

let[@inline never] arm_and_drop e w =
  Sim.Engine.arm (Sim.Engine.timer e (captured w 2)) (Sim.Vtime.of_int 3)

(* The pool never pins what an action captured once the slot is free:
   after a major collection, the value captured by a fired event, by a
   cancelled and dropped timer, and by a timer dropped while queued that
   has since fired, is gone while the engine itself lives on.  A fiber's
   continuation is such a value. *)
let test_pool_pins_nothing () =
  let e = mk () in
  let w = Weak.create 3 in
  Sim.Engine.schedule e ~delay:1 (captured w 0);
  arm_and_cancel e w;
  arm_and_drop e w;
  Sim.Engine.run e;
  Gc.full_major ();
  List.iter
    (fun (i, what) -> check_false (what ^ " released") (Weak.check w i))
    [ (0, "a fired event's capture"); (1, "a cancelled timer's capture");
      (2, "a dropped, fired timer's capture") ];
  check_true "engine alive and drained" (Sim.Engine.quiescent (Sys.opaque_identity e))

let tests =
  [
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
    case "step order: time, then seq" test_step_order;
    case "until, then an earlier event" test_until_then_earlier;
    qcheck prop_queue_matches_model;
    case "timer positions match the model" test_timer_positions;
    case "pool growth matches the model" test_pool_growth;
    case "a freed slot runs its new action" test_freed_slot_runs_new_action;
    case "a freed slot changes kind" test_freed_slot_changes_kind;
    case "the pool pins no fired or cancelled action" test_pool_pins_nothing;
  ]
