(* The engine's pending-event queue, driven through its public calls.  The
   suite keeps the name it had when the queue was a binary heap and checks
   the same contracts on the engine: sorted draining, a look at the head
   that consumes nothing, interleaved scheduling and firing, and
   same-instant FIFO.  The differential property against a sorted-list
   model is in [Test_engine]. *)

open Util

let mk () = Sim.Engine.create ~rng:(Sim.Rng.create 1) ()

let now e = Sim.Vtime.to_int (Sim.Engine.now e)

(* One event per delay; each pushes the instant it fires at onto [log]. *)
let schedule_all e log delays =
  List.iter
    (fun delay -> Sim.Engine.schedule e ~delay (fun () -> log := now e :: !log))
    delays

let test_empty () =
  let e = mk () in
  check_true "quiescent" (Sim.Engine.quiescent e);
  check_int "pending 0" 0 (Sim.Engine.pending e);
  check_false "step fires nothing" (Sim.Engine.step e);
  check_int "clock untouched" 0 (now e)

let test_ordering () =
  let e = mk () in
  let log = ref [] in
  schedule_all e log [ 5; 1; 4; 1; 3; 9; 2 ];
  Sim.Engine.run e;
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !log)

(* [run ~until] looks at the head before it fires: a head past the
   deadline stays queued. *)
let test_peek_does_not_remove () =
  let e = mk () in
  let log = ref [] in
  schedule_all e log [ 2; 1 ];
  Sim.Engine.run ~until:Sim.Vtime.zero e;
  check_int "still 2 events" 2 (Sim.Engine.pending e);
  check_true "step fires" (Sim.Engine.step e);
  Alcotest.(check (list int)) "head is the minimum" [ 1 ] !log

let test_interleaved () =
  let e = mk () in
  let log = ref [] in
  let step_fires expected =
    check_true "step fires" (Sim.Engine.step e);
    match !log with
    | at :: _ -> check_int "fired instant" expected at
    | [] -> Alcotest.fail "nothing fired"
  in
  schedule_all e log [ 10; 5 ];
  step_fires 5;
  (* From the clock at 5: instants 6 and 25, around the pending 10. *)
  schedule_all e log [ 1; 20 ];
  step_fires 6;
  step_fires 10;
  step_fires 25;
  check_true "empty again" (Sim.Engine.quiescent e)

(* Delays reach far past the engine's bucket window; negative ones fire at
   the current instant. *)
let prop_heap_sort =
  QCheck.Test.make ~name:"heap drain is sorted" ~count:200
    QCheck.(list (int_range (-5) 1000))
    (fun delays ->
      let e = mk () in
      let log = ref [] in
      schedule_all e log delays;
      Sim.Engine.run e;
      List.equal Int.equal (List.rev !log)
        (List.sort Int.compare (List.map (max 0) delays)))

let cmp_time_seq (t1, s1) (t2, s2) =
  match Int.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c

(* Schedules and single steps interleave; every step must fire the pending
   event least in (time, seq), at its own instant.  Delays come from a tiny
   domain so same-instant collisions dominate. *)
let prop_same_instant_fifo =
  QCheck.Test.make ~name:"same-instant FIFO under interleaved pops" ~count:300
    QCheck.(list (option (int_bound 3)))
    (fun ops ->
      let e = mk () in
      let pending = ref [] and seq = ref 0 and fired = ref None in
      List.for_all
        (function
          | Some delay ->
            let s = !seq in
            incr seq;
            Sim.Engine.schedule e ~delay (fun () -> fired := Some s);
            pending := List.sort cmp_time_seq ((now e + delay, s) :: !pending);
            true
          | None -> (
            fired := None;
            let stepped = Sim.Engine.step e in
            match !pending with
            | [] -> not stepped
            | (time, s) :: rest ->
              pending := rest;
              stepped
              && Option.equal Int.equal !fired (Some s)
              && Int.equal time (now e)))
        ops)

let tests =
  [
    case "empty heap" test_empty;
    case "ordering" test_ordering;
    case "peek non-destructive" test_peek_does_not_remove;
    case "interleaved" test_interleaved;
    qcheck prop_heap_sort;
    qcheck prop_same_instant_fifo;
  ]
