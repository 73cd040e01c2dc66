(* The engine's pending-event queue, driven through its public calls.  The
   suite keeps the name it had when the queue was a binary heap and checks
   the same contracts on the engine: sorted draining, a look at the head
   that consumes nothing, interleaved scheduling and firing, same-instant
   FIFO, and least-match removal that loses and duplicates nothing.  The
   differential property against a sorted-list model is in [Test_engine]. *)

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
  check_true "ready empty" (List.is_empty (Sim.Engine.ready e));
  check_false "step fires nothing" (Sim.Engine.step e);
  check_false "fire_labeled fires nothing"
    (Sim.Engine.fire_labeled e ~label:"" ~not_before:Sim.Vtime.zero);
  check_int "clock untouched" 0 (now e)

let test_ordering () =
  let e = mk () in
  let log = ref [] in
  schedule_all e log [ 5; 1; 4; 1; 3; 9; 2 ];
  Sim.Engine.run e;
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (List.rev !log)

let test_peek_does_not_remove () =
  let e = mk () in
  schedule_all e (ref []) [ 2; 1 ];
  (match Sim.Engine.ready e with
   | first :: _ -> check_int "head is the minimum" 1 (Sim.Vtime.to_int first.r_time)
   | [] -> Alcotest.fail "ready is empty");
  check_int "still 2 events" 2 (Sim.Engine.pending e)

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

let test_iter_unordered () =
  let e = mk () in
  schedule_all e (ref []) [ 3; 1; 2 ];
  let rs = Sim.Engine.ready e in
  check_int "lists every event" 3 (List.length rs);
  check_int "visits all"
    6
    (List.fold_left
       (fun acc (r : Sim.Engine.ready_event) -> acc + Sim.Vtime.to_int r.r_time)
       0 rs)

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

let label_of x = match x mod 3 with 0 -> "a" | 1 -> "b" | _ -> "c"

(* Pushes schedule an event under one of three labels; takes fire the
   (time, seq)-least pending event carrying a label, out of queue order.
   Each take must fire exactly the model's least match, or nothing when
   none is pending; the survivors must then drain in (time, seq) order,
   and drained plus taken must be exactly what was pushed. *)
let prop_take_invariant =
  QCheck.Test.make ~name:"take preserves the heap invariant and multiset"
    ~count:300
    QCheck.(list (pair bool (int_bound 7)))
    (fun ops ->
      let e = mk () in
      let fired = ref [] in
      let pending = ref [] and pushed = ref [] and taken = ref [] in
      let next = ref 0 in
      let take_ok (is_take, x) =
        let label = label_of x in
        if not is_take then begin
          let tag = !next in
          incr next;
          let time = now e + x in
          Sim.Engine.schedule ~label e ~delay:x (fun () -> fired := (time, tag) :: !fired);
          pending :=
            List.sort
              (fun (t1, s1, _) (t2, s2, _) -> cmp_time_seq (t1, s1) (t2, s2))
              ((time, tag, label) :: !pending);
          pushed := tag :: !pushed;
          true
        end
        else begin
          fired := [];
          let took = Sim.Engine.fire_labeled e ~label ~not_before:(Sim.Engine.now e) in
          match List.find_opt (fun (_, _, l) -> String.equal l label) !pending with
          | None -> (not took) && List.is_empty !fired
          | Some (_, tag, _) ->
            pending := List.filter (fun (_, t, _) -> not (Int.equal t tag)) !pending;
            taken := tag :: !taken;
            took
            && List.equal Int.equal (List.map snd !fired) [ tag ]
        end
      in
      List.for_all take_ok ops
      &&
      (fired := [];
       Sim.Engine.run e;
       let drained = List.rev !fired in
       let sorted = List.sort Int.compare in
       List.equal Int.equal (List.map snd drained)
         (List.map (fun (_, t, _) -> t) !pending)
       && List.equal Int.equal
            (List.map fst drained)
            (sorted (List.map fst drained))
       && List.equal Int.equal
            (sorted (List.map snd drained @ !taken))
            (sorted !pushed)))

let tests =
  [
    case "empty heap" test_empty;
    case "ordering" test_ordering;
    case "peek non-destructive" test_peek_does_not_remove;
    case "interleaved" test_interleaved;
    case "iter_unordered" test_iter_unordered;
    qcheck prop_heap_sort;
    qcheck prop_same_instant_fifo;
    qcheck prop_take_invariant;
  ]
