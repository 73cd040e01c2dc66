open Util
open Registers

(* A writer fiber and a reader fiber over a fresh deployment; returns the
   scenario plus the endpoints. *)
let setup ?(seed = 7) ?(n = 9) ?(f = 1) () =
  let scn = async_scenario ~seed ~n ~f () in
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  (scn, w, r)

let test_write_then_read () =
  let scn, w, r = setup () in
  let got = ref None in
  run_fiber scn "wr" (fun () ->
      ignore (Swsr_regular.write w (int_value 42));
      got := Outcome.to_option (Swsr_regular.read r));
  Alcotest.(check (option value)) "last written value" (Some (int_value 42)) !got

let test_read_before_any_write_terminates () =
  (* All-bot initial server state: the read terminates (liveness) and, the
     configuration being uniform, returns Bot. *)
  let scn, _w, r = setup () in
  let got = ref None in
  run_fiber scn "r" (fun () -> got := Outcome.to_option (Swsr_regular.read r));
  Alcotest.(check (option value)) "bot" (Some Value.bot) !got

let test_sequence_of_writes () =
  let scn, w, r = setup () in
  let got = ref [] in
  run_fiber scn "wr" (fun () ->
      for i = 1 to 10 do
        ignore (Swsr_regular.write w (int_value i));
        got := Outcome.to_option (Swsr_regular.read r) :: !got
      done);
  List.iteri
    (fun i v ->
      Alcotest.(check (option value))
        (Printf.sprintf "read %d" i)
        (Some (int_value (10 - i)))
        v)
    !got

let concurrent_workload ?(writes = 30) ?(reads = 30) scn w r =
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ())
            ~write:(Swsr_regular.write w)
            ~count:writes ~gap:(Harness.Workload.gap 0 20) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn ~tally:(Harness.Workload.tally ())
            ~read:(fun () -> Swsr_regular.read r)
            ~count:reads ~gap:(Harness.Workload.gap 0 20) () );
    ]

(* Reads invoked after the first write invoked at or after [lo]
   completed must be regular. *)
let check_regular ?(lo = 0) scn =
  let h = scn.Harness.Scenario.history in
  match Oracles.Stabilization.cutoff_from h ~lo with
  | None -> Alcotest.failf "no write invoked at or after %d" lo
  | Some cutoff ->
    let report = Oracles.Regularity.check ~cutoff h in
    if not (Oracles.Regularity.is_clean report) then
      Alcotest.failf "%a" Oracles.Regularity.pp report

let test_concurrent_reads_writes_regular () =
  let scn, w, r = setup () in
  concurrent_workload scn w r;
  check_regular scn;
  check_true "reads took few iterations"
    (Swsr_regular.reader_iterations r <= 3 * 30)

let test_many_seeds_regular () =
  for seed = 1 to 20 do
    let scn, w, r = setup ~seed () in
    concurrent_workload ~writes:15 ~reads:15 scn w r;
    check_regular scn
  done

let test_with_silent_byzantine () =
  let scn, w, r = setup () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 3
    Byzantine.Behavior.silent;
  concurrent_workload scn w r;
  check_regular scn

let test_with_garbage_byzantine () =
  let scn, w, r = setup () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    Byzantine.Behavior.garbage;
  concurrent_workload scn w r;
  check_regular scn

let test_with_frozen_byzantine () =
  let scn, w, r = setup () in
  let srv = Byzantine.Adversary.server scn.Harness.Scenario.adversary 5 in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 5
    (Byzantine.Behavior.frozen srv);
  concurrent_workload scn w r;
  check_regular scn

let test_with_equivocating_byzantine () =
  let scn, w, r = setup () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 7
    Byzantine.Behavior.equivocate;
  concurrent_workload scn w r;
  check_regular scn

let test_larger_system () =
  let scn, w, r = setup ~n:17 ~f:2 ~seed:3 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    Byzantine.Behavior.garbage;
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 1
    Byzantine.Behavior.silent;
  concurrent_workload ~writes:15 ~reads:15 scn w r;
  check_regular scn

let test_trivial_system () =
  (* n = 1, t = 0: a single perfectly reliable server. *)
  let scn, w, r = setup ~n:1 ~f:0 () in
  let got = ref None in
  run_fiber scn "wr" (fun () ->
      ignore (Swsr_regular.write w (int_value 5));
      got := Outcome.to_option (Swsr_regular.read r));
  Alcotest.(check (option value)) "single server" (Some (int_value 5)) !got

(* --- stabilization after transient faults (Theorem 1) --- *)

let test_stabilizes_after_corruption () =
  let scn, w, r = setup ~seed:13 () in
  Harness.Scenario.register_port scn (Swsr_regular.writer_port w);
  Harness.Scenario.register_port scn (Swsr_regular.reader_port r);
  (* Corrupt all server state at t=300, mid-workload. *)
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int 300)
    ~prefix:"server.";
  concurrent_workload ~writes:40 ~reads:40 scn w r;
  check_regular ~lo:300 scn

let tests =
  [
    case "write then read" test_write_then_read;
    case "read before any write terminates" test_read_before_any_write_terminates;
    case "sequence of writes" test_sequence_of_writes;
    case "concurrent ops regular" test_concurrent_reads_writes_regular;
    case "regular across seeds" test_many_seeds_regular;
    case "silent byzantine" test_with_silent_byzantine;
    case "garbage byzantine" test_with_garbage_byzantine;
    case "frozen byzantine" test_with_frozen_byzantine;
    case "equivocating byzantine" test_with_equivocating_byzantine;
    case "larger system n=17 t=2" test_larger_system;
    case "trivial n=1 t=0" test_trivial_system;
    case "stabilizes after corruption (Thm 1)" test_stabilizes_after_corruption;
  ]
