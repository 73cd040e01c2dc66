open Util

let schema = [ "alpha"; "beta"; "gamma" ]

let setup ?(seed = 7) ?(clients = 2) () =
  let scn = async_scenario ~seed () in
  let cfg = Kv.Store.config ~keys:schema ~clients in
  let stores =
    Array.init clients (fun id ->
        Kv.Store.client ~net:scn.Harness.Scenario.net ~cfg ~id
          ~client_id:(400 + id))
  in
  (scn, stores)

let test_config_validation () =
  Alcotest.check_raises "empty schema" (Invalid_argument "Kv.config: empty schema")
    (fun () -> ignore (Kv.Store.config ~keys:[] ~clients:2));
  Alcotest.check_raises "duplicate keys"
    (Invalid_argument "Kv.config: duplicate keys") (fun () ->
      ignore (Kv.Store.config ~keys:[ "a"; "a" ] ~clients:2));
  Alcotest.check_raises "no clients"
    (Invalid_argument "Kv.config: need at least one client") (fun () ->
      ignore (Kv.Store.config ~keys:[ "a" ] ~clients:0))

let test_set_get () =
  let scn, stores = setup () in
  let got = ref None in
  run_fiber scn "kv" (fun () ->
      ignore (Kv.Store.set_o stores.(0) ~key:"alpha" (int_value 1));
      got :=
        Registers.Outcome.to_option (Kv.Store.get_o stores.(0) ~key:"alpha"));
  Alcotest.(check (option value)) "read own write" (Some (int_value 1)) !got

let test_cross_client_visibility () =
  let scn, stores = setup () in
  let got = ref None in
  run_fiber scn "kv" (fun () ->
      ignore (Kv.Store.set_o stores.(0) ~key:"beta" (int_value 7));
      got :=
        Registers.Outcome.to_option (Kv.Store.get_o stores.(1) ~key:"beta"));
  Alcotest.(check (option value)) "visible to the other client"
    (Some (int_value 7)) !got

let test_keys_isolated () =
  let scn, stores = setup () in
  let a = ref None and b = ref None and c = ref None in
  run_fiber scn "kv" (fun () ->
      ignore (Kv.Store.set_o stores.(0) ~key:"alpha" (int_value 1));
      ignore (Kv.Store.set_o stores.(1) ~key:"beta" (int_value 2));
      a := Registers.Outcome.to_option (Kv.Store.get_o stores.(0) ~key:"alpha");
      b := Registers.Outcome.to_option (Kv.Store.get_o stores.(0) ~key:"beta");
      c :=
        Registers.Outcome.to_option (Kv.Store.get_o stores.(0) ~key:"gamma"));
  Alcotest.(check (option value)) "alpha" (Some (int_value 1)) !a;
  Alcotest.(check (option value)) "beta" (Some (int_value 2)) !b;
  Alcotest.(check (option value)) "gamma unwritten"
    (Some Registers.Value.bot) !c

let test_unknown_key () =
  let scn, stores = setup () in
  run_fiber scn "kv" (fun () ->
      match Kv.Store.get_o stores.(0) ~key:"nope" with
      | exception Not_found -> ()
      | _ -> Alcotest.fail "expected Not_found")

let test_snapshot () =
  let scn, stores = setup () in
  let snap = ref [] in
  run_fiber scn "kv" (fun () ->
      ignore (Kv.Store.set_o stores.(0) ~key:"alpha" (int_value 1));
      ignore (Kv.Store.set_o stores.(1) ~key:"gamma" (int_value 3));
      snap := Kv.Store.snapshot stores.(1));
  check_true "snapshot in schema order"
    (List.map fst !snap = schema);
  check_true "values present"
    (List.assoc "alpha" !snap = int_value 1
    && List.assoc "gamma" !snap = int_value 3)

let test_last_writer_wins_per_key () =
  let scn, stores = setup () in
  let got = ref None in
  run_fiber scn "kv" (fun () ->
      ignore (Kv.Store.set_o stores.(0) ~key:"alpha" (int_value 1));
      ignore (Kv.Store.set_o stores.(1) ~key:"alpha" (int_value 2));
      ignore (Kv.Store.set_o stores.(0) ~key:"alpha" (int_value 3));
      got :=
        Registers.Outcome.to_option (Kv.Store.get_o stores.(1) ~key:"alpha"));
  Alcotest.(check (option value)) "latest" (Some (int_value 3)) !got

let test_survives_byzantine_and_corruption () =
  let scn, stores = setup ~seed:9 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 3
    Byzantine.Behavior.garbage;
  let final = ref None in
  run_fiber scn "kv" (fun () ->
      ignore (Kv.Store.set_o stores.(0) ~key:"alpha" (int_value 1));
      (* transient fault on every server *)
      ignore
        (Sim.Fault.inject_matching scn.Harness.Scenario.fault
           ~rng:(Harness.Scenario.split_rng scn) ~prefix:"server.");
      (* the fault burst ends; the next write stabilizes the key *)
      ignore (Kv.Store.set_o stores.(1) ~key:"alpha" (int_value 2));
      final :=
        Registers.Outcome.to_option (Kv.Store.get_o stores.(0) ~key:"alpha"));
  Alcotest.(check (option value)) "recovered" (Some (int_value 2)) !final

let test_concurrent_clients_atomic_per_key () =
  let scn, stores = setup ~seed:11 () in
  (* Both clients hammer the same key; record and check with the MWMR
     oracle. *)
  let jobs =
    Array.to_list
      (Array.mapi
         (fun i store ->
           ( Printf.sprintf "client%d" i,
             fun () ->
               let rng = Harness.Scenario.split_rng scn in
               for k = 1 to 8 do
                 let v = Harness.Workload.value_for ~writer:(500 + i) k in
                 let inv = Harness.Scenario.now scn in
                 ignore (Kv.Store.set_o store ~key:"alpha" v);
                 let resp = Harness.Scenario.now scn in
                 Oracles.History.record scn.Harness.Scenario.history
                   ~proc:(Printf.sprintf "c%d" i)
                   ~kind:Oracles.History.Write ~inv ~resp v;
                 Harness.Scenario.sleep scn (Sim.Rng.int_in rng 0 30);
                 let inv = Harness.Scenario.now scn in
                 (match Kv.Store.get_o store ~key:"alpha" with
                 | Registers.Outcome.Ok v ->
                   Oracles.History.record scn.Harness.Scenario.history
                     ~proc:(Printf.sprintf "c%d" i)
                     ~kind:Oracles.History.Read ~inv
                     ~resp:(Harness.Scenario.now scn) v
                 | Registers.Outcome.(Degraded _ | Timed_out _) ->
                   Alcotest.fail "read failed");
                 Harness.Scenario.sleep scn (Sim.Rng.int_in rng 0 30)
               done ))
         stores)
  in
  run_fibers scn jobs;
  (* Multi-writer histories break the single-writer regularity checker's
     "last completed write" notion (overlapping writes order arbitrarily),
     so require the weaker but well-defined properties: liveness, and no
     phantom reads (every value read was actually written or is Bot). *)
  let report =
    Oracles.Regularity.check ~initial_ok:true scn.Harness.Scenario.history
  in
  check_int "no liveness failures" 0 report.Oracles.Regularity.liveness_failures;
  let written =
    List.map
      (fun (o : Oracles.History.op) -> o.Oracles.History.value)
      (Oracles.History.writes scn.Harness.Scenario.history)
  in
  List.iter
    (fun (o : Oracles.History.op) ->
      check_true "no phantom values"
        (Registers.Value.equal o.Oracles.History.value Registers.Value.bot
        || List.exists (Registers.Value.equal o.Oracles.History.value) written))
    (Oracles.History.reads scn.Harness.Scenario.history)

let tests =
  [
    case "config validation" test_config_validation;
    case "set/get" test_set_get;
    case "cross-client visibility" test_cross_client_visibility;
    case "keys isolated" test_keys_isolated;
    case "unknown key" test_unknown_key;
    case "snapshot" test_snapshot;
    case "last writer wins per key" test_last_writer_wins_per_key;
    case "byzantine + corruption" test_survives_byzantine_and_corruption;
    case "concurrent clients" test_concurrent_clients_atomic_per_key;
  ]
