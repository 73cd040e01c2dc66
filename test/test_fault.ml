open Util

let test_register_and_names () =
  let f = Sim.Fault.create () in
  Sim.Fault.register f ~name:"server.0" ignore;
  Sim.Fault.register f ~name:"server.1" ignore;
  Sim.Fault.register f ~name:"client.w" ignore;
  check_true "names in order"
    (Sim.Fault.names f = [ "server.0"; "server.1"; "client.w" ])

let test_inject_matching () =
  let f = Sim.Fault.create () in
  let hits = ref [] in
  List.iter
    (fun name -> Sim.Fault.register f ~name (fun _ -> hits := name :: !hits))
    [ "server.0"; "server.1"; "client.w" ];
  let rng = Sim.Rng.create 1 in
  let n = Sim.Fault.inject_matching f ~rng ~prefix:"server." in
  check_int "two hit" 2 n;
  check_true "right targets"
    (List.sort String.compare !hits = [ "server.0"; "server.1" ])

let test_inject_all () =
  let f = Sim.Fault.create () in
  let count = ref 0 in
  for i = 0 to 4 do
    Sim.Fault.register f
      ~name:(Printf.sprintf "t%d" i)
      (fun _ -> incr count)
  done;
  let rng = Sim.Rng.create 1 in
  check_int "all five" 5 (Sim.Fault.inject_all f ~rng);
  check_int "all ran" 5 !count

let test_rng_passed_through () =
  let f = Sim.Fault.create () in
  let seen = ref (-1) in
  Sim.Fault.register f ~name:"x" (fun rng -> seen := Sim.Rng.int rng 100);
  ignore (Sim.Fault.inject_all f ~rng:(Sim.Rng.create 5));
  check_true "corruption drew randomness" (!seen >= 0)

let test_segment_boundaries () =
  (* "server.1" must hit server.1 and its sub-state, never server.10. *)
  let f = Sim.Fault.create () in
  let hits = ref [] in
  List.iter
    (fun name -> Sim.Fault.register f ~name (fun _ -> hits := name :: !hits))
    [ "server.1"; "server.1.cell"; "server.10"; "server.10.cell" ];
  let rng = Sim.Rng.create 1 in
  let n = Sim.Fault.inject_matching f ~rng ~prefix:"server.1" in
  check_int "exact segment plus children" 2 n;
  check_true "server.10 untouched"
    (List.sort String.compare !hits = [ "server.1"; "server.1.cell" ]);
  (* A trailing dot descends: children only, not the bare name. *)
  hits := [];
  check_int "trailing dot hits the children" 1
    (Sim.Fault.inject_matching f ~rng ~prefix:"server.1.");
  check_true "only the sub-state" (!hits = [ "server.1.cell" ])

let test_segment_boundaries_dotted () =
  let f = Sim.Fault.create () in
  let count = ref 0 in
  List.iter
    (fun name -> Sim.Fault.register f ~name (fun _ -> incr count))
    [ "server.1"; "server.10"; "server.12.cell" ]
  ;
  let rng = Sim.Rng.create 2 in
  check_int "\"server.\" is a plain prefix" 3
    (Sim.Fault.inject_matching f ~rng ~prefix:"server.");
  check_int "\"server.1\" only the exact slot" 1
    (Sim.Fault.inject_matching f ~rng ~prefix:"server.1");
  check_int "\"server\" covers the whole segment" 3
    (Sim.Fault.inject_matching f ~rng ~prefix:"server");
  check_int "\"serv\" covers nothing (partial segment)" 0
    (Sim.Fault.inject_matching f ~rng ~prefix:"serv");
  check_int "empty prefix is inject-all" 3
    (Sim.Fault.inject_matching f ~rng ~prefix:"")

let test_scheduled_injection () =
  let rng = Sim.Rng.create 1 in
  let e = Sim.Engine.create ~rng () in
  let f = Sim.Fault.create () in
  let corrupted_at = ref (-1) in
  Sim.Fault.register f ~name:"cell" (fun _ ->
      corrupted_at := Sim.Vtime.to_int (Sim.Engine.now e));
  Sim.Fault.schedule f ~engine:e ~at:(Sim.Vtime.of_int 25) ~prefix:"";
  Sim.Engine.run e;
  check_int "fired at the right instant" 25 !corrupted_at;
  check_int "counter recorded" 1
    (Obs.Metrics.counter (Sim.Engine.metrics e) "fault.injections")

let tests =
  [
    case "register/names" test_register_and_names;
    case "inject matching" test_inject_matching;
    case "inject all" test_inject_all;
    case "rng passthrough" test_rng_passed_through;
    case "scheduled injection" test_scheduled_injection;
    case "prefixes respect segment boundaries" test_segment_boundaries;
    case "segment matching corner cases" test_segment_boundaries_dotted;
  ]
