(* Shared helpers for the test suite. *)

module Stab = Oracles.Stabilization

let check_int = Alcotest.(check int)

let check_bool = Alcotest.(check bool)

let check_true msg b = check_bool msg true b

let check_false msg b = check_bool msg false b

let value = Alcotest.testable Registers.Value.pp Registers.Value.equal

(* A standard asynchronous deployment: n servers, all honest, uniform
   delays in [1,10]. *)
let async_scenario ?(seed = 7) ?(n = 9) ?(f = 1) () =
  let params = Registers.Params.create_exn ~n ~f ~mode:Registers.Params.Async () in
  Harness.Scenario.create ~seed ~params ()

let sync_scenario ?(seed = 7) ?(n = 4) ?(f = 1) ?(max_delay = 10) () =
  let params =
    Registers.Params.create_exn ~n ~f
      ~mode:(Registers.Params.Sync { max_delay; slack = 3 }) ()
  in
  Harness.Scenario.create ~seed ~params ()

(* Spawn a fiber, run the engine to quiescence, and fail the test if the
   fiber did not finish. *)
let run_fiber scn name f =
  let h = Sim.Fiber.spawn ~name f in
  Harness.Scenario.run scn;
  match Sim.Fiber.status h with
  | Sim.Fiber.Done -> ()
  | Sim.Fiber.Running -> Alcotest.failf "fiber %s did not finish" name
  | Sim.Fiber.Failed e -> raise e

(* Spawn a fiber over a bare engine (no scenario), run to quiescence. *)
let run_engine_fiber engine f =
  let h = Sim.Fiber.spawn f in
  Sim.Engine.run engine;
  match Sim.Fiber.status h with
  | Sim.Fiber.Done -> ()
  | Sim.Fiber.Running -> Alcotest.fail "fiber stuck"
  | Sim.Fiber.Failed e -> raise e

(* Spawn several fibers together, then run to quiescence. *)
let run_fibers scn jobs =
  let handles = List.map (fun (name, f) -> (name, Sim.Fiber.spawn ~name f)) jobs in
  Harness.Scenario.run scn;
  List.iter
    (fun (name, h) ->
      match Sim.Fiber.status h with
      | Sim.Fiber.Done -> ()
      | Sim.Fiber.Running -> Alcotest.failf "fiber %s did not finish" name
      | Sim.Fiber.Failed e -> raise e)
    handles

let case name f = Alcotest.test_case name `Quick f

(* Deterministic qcheck registration: a fixed generator seed so the suite
   is reproducible run to run; QCHECK_SEED overrides it for fuzzing. *)
let qcheck t =
  let seed =
    match int_of_string_opt (Sys.getenv "QCHECK_SEED") with
    | Some s -> s
    | None -> 20260707
    | exception Not_found -> 20260707
  in
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| seed |]) t

let int_value i = Registers.Value.int i
