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

let test_send_timed_reports_arrival () =
  let e, link, received = mk () in
  let at = Sim.Link.send_timed link "x" in
  Sim.Engine.run e;
  ignore !received;
  check_int "engine stops at arrival" (Sim.Vtime.to_int at)
    (Sim.Vtime.to_int (Sim.Engine.now e))

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
  let arrival =
    List.map
      (fun m ->
        ( m,
          Sim.Vtime.to_int
            (Sim.Link.send_timed link ~on_delivered:(fun () -> slots := m :: !slots) m) ))
      [ "a"; "b"; "c"; "d" ]
  in
  Sim.Link.corrupt_in_flight link (function "b" -> None | m -> Some m);
  let delivered () = List.rev_map fst !got in
  check_true "a delivered" (Sim.Engine.step e);
  check_strings "only a so far" [ "a" ] (delivered ());
  check_true "b's slot fires" (Sim.Engine.step e);
  check_strings "the drop delivered nothing" [ "a" ] (delivered ());
  while Sim.Engine.step e do () done;
  Alcotest.(check (list (pair string int)))
    "each survivor at its own arrival"
    (List.filter (fun (m, _) -> not (String.equal m "b")) arrival)
    (List.rev !got);
  check_strings "every slot notified, in order" [ "a"; "b"; "c"; "d" ] (List.rev !slots)

let test_inject () =
  let e, link, received = mk () in
  Sim.Link.inject link "spurious";
  Sim.Engine.run e;
  check_strings "injected message arrives" [ "spurious" ] !received

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

let tests =
  [
    case "delivery" test_delivery;
    case "FIFO order" test_fifo_order;
    case "FIFO across time" test_fifo_across_time;
    case "send_timed arrival" test_send_timed_reports_arrival;
    case "in-flight corruption" test_in_flight_and_corruption;
    case "a dropped payload keeps the heads aligned" test_drop_keeps_heads;
    case "inject" test_inject;
    case "message counter" test_message_counter;
    case "fixed delay" test_fixed_delay;
    case "bad samplers rejected" test_bad_samplers_rejected;
  ]
