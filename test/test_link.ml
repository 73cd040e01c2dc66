open Util

let check_strings = Alcotest.(check (list string))

let mk ?(lo = 1) ?(hi = 10) () =
  let rng = Sim.Rng.create 3 in
  let e = Sim.Engine.create ~rng () in
  let received = ref [] in
  let link =
    Sim.Link.create ~engine:e
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo ~hi)
      ~deliver:(fun m -> received := m :: !received)
  in
  (e, link, received)

let test_delivery () =
  let e, link, received = mk () in
  Sim.Link.send link "hello";
  Sim.Engine.run e;
  check_strings "delivered" [ "hello" ] !received;
  let t = Sim.Vtime.to_int (Sim.Engine.now e) in
  check_true "delay in range" (t >= 1 && t <= 10)

let test_fifo_order () =
  let e, link, received = mk () in
  for i = 1 to 50 do
    Sim.Link.send link (string_of_int i)
  done;
  Sim.Engine.run e;
  check_strings "FIFO preserved despite random delays"
    (List.init 50 (fun i -> string_of_int (i + 1)))
    (List.rev !received)

let test_fifo_across_time () =
  let e, link, received = mk ~lo:1 ~hi:20 () in
  Sim.Link.send link "a";
  Sim.Engine.schedule e ~delay:2 (fun () -> Sim.Link.send link "b");
  Sim.Engine.schedule e ~delay:4 (fun () -> Sim.Link.send link "c");
  Sim.Engine.run e;
  check_strings "order kept" [ "a"; "b"; "c" ] (List.rev !received)

(* A message arrives its sampled delay after its send, pushed later when
   that would overtake one already in flight: delays 5, 1, 8, 2 from
   instant 0 deliver at 5, 5, 8, 8. *)
let test_arrival_instant () =
  let rng = Sim.Rng.create 3 in
  let e = Sim.Engine.create ~rng () in
  let delays = ref [ 5; 1; 8; 2 ] in
  let delay () =
    match !delays with
    | d :: rest ->
      delays := rest;
      d
    | [] -> 1
  in
  let got = ref [] in
  let link =
    Sim.Link.create ~engine:e ~delay
      ~deliver:(fun m -> got := (m, Sim.Vtime.to_int (Sim.Engine.now e)) :: !got)
  in
  List.iter (Sim.Link.send link) [ "a"; "b"; "c"; "d" ];
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "FIFO arrival instants"
    [ ("a", 5); ("b", 5); ("c", 8); ("d", 8) ]
    (List.rev !got)

let test_in_flight_and_corruption () =
  let e, link, received = mk () in
  Sim.Link.send link "keep";
  Sim.Link.send link "rewrite";
  Sim.Link.send link "drop";
  check_strings "nothing delivered before the run" [] !received;
  let visited = ref [] in
  Sim.Link.corrupt_in_flight link (fun m ->
      visited := m :: !visited;
      match m with "rewrite" -> Some "rewritten" | "drop" -> None | m -> Some m);
  check_strings "visited newest first" [ "drop"; "rewrite"; "keep" ] (List.rev !visited);
  Sim.Engine.run e;
  check_strings "corruption applied" [ "keep"; "rewritten" ] (List.rev !received)

(* A dropped payload keeps its delivery event, which delivers nothing;
   every later event must still deliver the next message, at that
   message's own arrival.  Fired one engine step at a time. *)
let test_drop_keeps_heads () =
  let rng = Sim.Rng.create 3 in
  let e = Sim.Engine.create ~rng () in
  let got = ref [] and slots = ref [] in
  let link =
    Sim.Link.create ~engine:e
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10)
      ~deliver:(fun m -> got := (m, Sim.Vtime.to_int (Sim.Engine.now e)) :: !got)
  in
  let slot m () = slots := (m, Sim.Vtime.to_int (Sim.Engine.now e)) :: !slots in
  List.iter (fun m -> Sim.Link.send link ~on_delivered:(slot m) m) [ "a"; "b"; "c"; "d" ];
  Sim.Link.corrupt_in_flight link (function "b" -> None | m -> Some m);
  let delivered () = List.rev_map fst !got in
  check_true "a delivered" (Sim.Engine.step e);
  check_strings "only a so far" [ "a" ] (delivered ());
  check_true "b's slot fires" (Sim.Engine.step e);
  check_strings "the drop delivered nothing" [ "a" ] (delivered ());
  while Sim.Engine.step e do () done;
  let slots = List.rev !slots in
  check_strings "every slot notified, in order" [ "a"; "b"; "c"; "d" ]
    (List.map fst slots);
  Alcotest.(check (list (pair string int)))
    "each survivor at its own arrival"
    (List.filter (fun (m, _) -> not (String.equal m "b")) slots)
    (List.rev !got)

(* A link's ring holds 8 messages, then 16, 32 and 64.  Messages go out
   8 at a time and the 3 oldest arrive after each batch, so the ring has
   wrapped whenever it grows.  With more than 8, 16 and 32 messages in
   flight, a transient fault visits them newest first, dropping every
   third and rewriting the one after; every survivor then arrives in
   order, at its own arrival, and every message's callback fires in
   order, the dropped ones' included. *)
let test_ring_wraps_and_grows () =
  List.iter
    (fun target ->
      let rng = Sim.Rng.create target in
      let e = Sim.Engine.create ~rng () in
      let got = ref [] and slots = ref [] in
      let link =
        Sim.Link.create ~engine:e
          ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10)
          ~deliver:(fun m -> got := (m, Sim.Vtime.to_int (Sim.Engine.now e)) :: !got)
      in
      let sent = ref [] and arrived = ref 0 in
      let slot m () = slots := (m, Sim.Vtime.to_int (Sim.Engine.now e)) :: !slots in
      while List.length !sent - !arrived <= target do
        for _ = 1 to 8 do
          let m = string_of_int (List.length !sent) in
          Sim.Link.send link ~on_delivered:(slot m) m;
          sent := m :: !sent
        done;
        for _ = 1 to 3 do
          check_true "an old message arrives" (Sim.Engine.step e)
        done;
        arrived := !arrived + 3
      done;
      let sent = List.rev !sent in
      let in_flight = List.filteri (fun i _ -> i >= !arrived) sent in
      let label = Printf.sprintf "%d in flight" (List.length in_flight) in
      check_int label (List.length in_flight) (Sim.Engine.pending e);
      let fate m =
        if List.exists (String.equal m) in_flight then int_of_string m mod 3 else 2
      in
      let visited = ref [] in
      Sim.Link.corrupt_in_flight link (fun m ->
          visited := m :: !visited;
          match fate m with 0 -> None | 1 -> Some (m ^ "'") | _ -> Some m);
      check_strings (label ^ ", visited newest first")
        (List.rev in_flight) (List.rev !visited);
      while Sim.Engine.step e do () done;
      let slots = List.rev !slots in
      check_strings (label ^ ", every slot notified, in order") sent
        (List.map fst slots);
      let expected =
        List.filter_map
          (fun (m, at) ->
            match fate m with 0 -> None | 1 -> Some (m ^ "'", at) | _ -> Some (m, at))
          slots
      in
      Alcotest.(check (list (pair string int)))
        (label ^ ", each survivor at its own arrival")
        expected (List.rev !got))
    [ 8; 16; 32 ]

let test_message_counter () =
  let e, link, _received = mk () in
  for _ = 1 to 5 do
    Sim.Link.send link "m"
  done;
  Sim.Engine.run e;
  check_int "net.msgs counts deliveries" 5
    (Obs.Metrics.counter (Sim.Engine.metrics e) "net.msgs")

let test_fixed_delay () =
  let rng = Sim.Rng.create 3 in
  let e = Sim.Engine.create ~rng () in
  let link =
    Sim.Link.create ~engine:e ~delay:(Sim.Link.fixed 7) ~deliver:ignore
  in
  Sim.Link.send link ();
  Sim.Engine.run e;
  check_int "fixed delay" 7 (Sim.Vtime.to_int (Sim.Engine.now e))

let test_bad_samplers_rejected () =
  let rng = Sim.Rng.create 3 in
  Alcotest.check_raises "negative fixed"
    (Invalid_argument "Link.fixed: negative delay") (fun () ->
      ignore (Sim.Link.fixed (-1) : Sim.Link.sampler));
  Alcotest.check_raises "bad range"
    (Invalid_argument "Link.uniform: bad delay range") (fun () ->
      ignore (Sim.Link.uniform rng ~lo:5 ~hi:2 : Sim.Link.sampler))

(* A payload and a delivery callback, registered in [w] at [i] and
   [i + 1]; apart from the link, nothing keeps them alive. *)
let[@inline never] send_tracked link w i =
  let payload = ref i and notified = ref i in
  Weak.set w i (Some payload);
  Weak.set w (i + 1) (Some notified);
  Sim.Link.send link
    ~on_delivered:(fun () -> ignore (Sys.opaque_identity !notified))
    payload

(* Once a message is delivered the link holds neither its payload nor
   its callback: after a major collection both are gone while the link
   itself lives on, with later messages still in flight. *)
let test_delivered_not_retained () =
  let rng = Sim.Rng.create 3 in
  let e = Sim.Engine.create ~rng () in
  let link = Sim.Link.create ~engine:e ~delay:(Sim.Link.fixed 2) ~deliver:ignore in
  let w = Weak.create 4 in
  send_tracked link w 0;
  Sim.Engine.run e;
  send_tracked link w 2;
  Gc.full_major ();
  check_false "a delivered payload is released" (Weak.check w 0);
  check_false "a delivered message's callback is released" (Weak.check w 1);
  check_true "an in-flight payload is kept" (Weak.check w 2);
  check_true "an in-flight message's callback is kept" (Weak.check w 3);
  Sim.Engine.run e;
  Gc.full_major ();
  check_false "the last payload is released" (Weak.check w 2);
  check_int "link alive and drained" 0 (Sim.Engine.pending (Sys.opaque_identity e));
  ignore (Sys.opaque_identity link)

let tests =
  [
    case "delivery" test_delivery;
    case "FIFO order" test_fifo_order;
    case "FIFO across time" test_fifo_across_time;
    case "arrival instant" test_arrival_instant;
    case "in-flight corruption" test_in_flight_and_corruption;
    case "a dropped payload keeps the heads aligned" test_drop_keeps_heads;
    case "the ring wraps and grows" test_ring_wraps_and_grows;
    case "message counter" test_message_counter;
    case "fixed delay" test_fixed_delay;
    case "bad samplers rejected" test_bad_samplers_rejected;
    case "a delivered message is not retained" test_delivered_not_retained;
  ]
