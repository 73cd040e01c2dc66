(* A replicated configuration store on the MWMR atomic register.

     dune exec examples/config_store.exe

   Three operator consoles (multi-writer!) push configuration revisions to
   a store replicated over 9 servers; every console reads the same latest
   revision despite one Byzantine replica and a mid-run transient fault
   that corrupts every server.  This is the paper's headline use case:
   server-based storage that heals itself after the fault burst ends. *)

open Registers

let feed = [| "timeout=30"; "timeout=45"; "replicas=5"; "tls=on"; "tls=off" |]

let () =
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:7 ~params () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 5
    Byzantine.Behavior.equivocate;

  let m = 3 in
  let cfg = Mwmr.default_config ~m in
  let consoles =
    Array.init m (fun i ->
        Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:i
          ~client_id:(10 + i))
  in

  (* A transient fault at t=600 corrupts every server's state. *)
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int 600) ~prefix:"server.";

  let log fmt =
    Printf.ksprintf
      (fun s ->
        Printf.printf "t=%-5d %s\n" (Sim.Vtime.to_int (Harness.Scenario.now scn)) s)
      fmt
  in
  Array.iteri
    (fun i console ->
      ignore
        (Sim.Fiber.spawn
           ~name:(Printf.sprintf "console%d" i)
           (fun () ->
             let rng = Harness.Scenario.split_rng scn in
             for round = 1 to 4 do
               (* Each console alternates: push a revision, then audit. *)
               let revision =
                 Printf.sprintf "%s #rev%d.%d"
                   feed.((i + round) mod Array.length feed)
                   i round
               in
               (match Mwmr.write console (Value.str revision) with
               | Outcome.Ok () -> log "[console%d] pushed %S" i revision
               | o -> log "[console%d] push %s" i (Outcome.kind o));
               Harness.Scenario.sleep scn (Sim.Rng.int_in rng 40 120);
               (match Mwmr.read console with
               | Outcome.Ok v ->
                 log "[console%d] sees   %s" i (Value.to_string v)
               | o -> log "[console%d] read %s" i (Outcome.kind o));
               Harness.Scenario.sleep scn (Sim.Rng.int_in rng 40 120)
             done)))
    consoles;
  Harness.Scenario.run scn;

  (* Post-run: all consoles agree on the final configuration. *)
  let finals = Array.make m None in
  Array.iteri
    (fun i console ->
      ignore
        (Sim.Fiber.spawn (fun () ->
             finals.(i) <- Outcome.to_option (Mwmr.read console))))
    consoles;
  Harness.Scenario.run scn;
  print_endline "--- final audit ---";
  Array.iteri
    (fun i v ->
      Printf.printf "console%d final view: %s\n" i
        (match v with Some v -> Value.to_string v | None -> "-"))
    finals;
  let all_equal =
    Array.for_all
      (fun v ->
        match (v, finals.(0)) with
        | Some a, Some b -> Value.equal a b
        | _ -> false)
      finals
  in
  Printf.printf "all consoles agree: %b\n" all_equal
