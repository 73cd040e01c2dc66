(* Quickstart: a practically stabilizing Byzantine-tolerant SWSR atomic
   register in ~40 lines.

     dune exec examples/quickstart.exe

   One writer and one reader share a register replicated over n = 9
   simulated servers, one of which answers with garbage; the reader still
   always sees fresh values. *)

open Registers

let () =
  (* A deployment: 9 servers, at most 1 Byzantine, asynchronous links. *)
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:42 ~params () in

  (* Make server 3 Byzantine: it answers every request with random junk. *)
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 3
    Byzantine.Behavior.garbage;

  (* Client endpoints for register instance 0. *)
  let net = scn.Harness.Scenario.net in
  let writer = Swsr_atomic.writer ~net ~client_id:1 ~inst:0 () in
  let reader = Swsr_atomic.reader ~net ~client_id:2 ~inst:0 () in

  (* Clients are fibers: sequential code over the simulated network. *)
  let _w =
    Sim.Fiber.spawn ~name:"writer" (fun () ->
        List.iter
          (fun word ->
            (* Operations report how they finished: Ok, or Degraded /
               Timed_out with a reason when too few servers answered. *)
            (match Swsr_atomic.write writer (Value.str word) with
            | Outcome.Ok () -> Printf.printf "[writer] wrote %S\n" word
            | Outcome.Degraded _ | Outcome.Timed_out _ -> assert false);
            Harness.Scenario.sleep scn 20)
          [ "tyranny"; "is"; "a"; "habit" ])
  in
  let _r =
    Sim.Fiber.spawn ~name:"reader" (fun () ->
        for _ = 1 to 6 do
          (match Swsr_atomic.read reader with
          | Outcome.Ok v ->
            Printf.printf "[reader] t=%-4d read %s\n"
              (Sim.Vtime.to_int (Harness.Scenario.now scn))
              (Value.to_string v)
          | Outcome.Degraded _ | Outcome.Timed_out _ -> assert false);
          Harness.Scenario.sleep scn 15
        done)
  in
  Harness.Scenario.run scn;
  Printf.printf "done at t=%d, %d messages exchanged\n"
    (Sim.Vtime.to_int (Harness.Scenario.now scn))
    (Harness.Scenario.messages_sent scn)
