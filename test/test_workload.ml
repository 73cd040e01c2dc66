open Util

let test_gap_validation () =
  Alcotest.check_raises "bad gap" (Invalid_argument "Workload.gap: bad range")
    (fun () -> ignore (Harness.Workload.gap 5 2));
  let g = Harness.Workload.gap 1 3 in
  check_int "lo" 1 g.Harness.Workload.lo;
  check_int "hi" 3 g.Harness.Workload.hi

let test_values_distinct_across_writers () =
  let seen = Hashtbl.create 64 in
  for writer = 0 to 4 do
    for k = 1 to 50 do
      let v = Registers.Value.to_string (Harness.Workload.value_for ~writer k) in
      check_false "no collision" (Hashtbl.mem seen v);
      Hashtbl.add seen v ()
    done
  done

let test_writer_job_records_history () =
  let scn = async_scenario () in
  let w = Registers.Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let tally = Harness.Workload.tally () in
  run_fiber scn "writer" (fun () ->
      Harness.Workload.writer_job scn ~tally
        ~write:(Registers.Swsr_regular.write w)
        ~count:7 ~gap:(Harness.Workload.gap 1 5) ());
  check_int "writes recorded" 7
    (List.length (Oracles.History.writes scn.Harness.Scenario.history));
  check_int "writes tallied" 7 tally.writes.ok;
  check_int "no read tallied" 0 tally.reads.ok

let test_reader_job_records_history () =
  let scn = async_scenario () in
  let r = Registers.Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let tally = Harness.Workload.tally () in
  run_fiber scn "reader" (fun () ->
      Harness.Workload.reader_job scn ~tally
        ~read:(fun () -> Registers.Swsr_regular.read r)
        ~count:5 ~gap:(Harness.Workload.gap 0 0) ());
  check_int "reads recorded" 5
    (List.length (Oracles.History.reads scn.Harness.Scenario.history));
  check_int "reads tallied" 5 tally.reads.ok

let test_mwmr_job_mixes_and_stamps () =
  let scn = async_scenario () in
  let cfg = Registers.Mwmr.default_config ~m:2 in
  let p0 = Registers.Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:0 ~client_id:300 in
  let tally = Harness.Workload.tally () in
  run_fiber scn "p0" (fun () ->
      Harness.Workload.mwmr_job scn ~tally ~proc:"p0" ~process:p0 ~ops:10
        ~write_ratio:0.5 ~gap:(Harness.Workload.gap 0 5) ());
  let ops = Oracles.History.ops scn.Harness.Scenario.history in
  check_int "all ops recorded" 10 (List.length ops);
  check_int "all ops tallied" 10 (tally.writes.ok + tally.reads.ok);
  check_true "mix of kinds"
    (List.exists (fun (o : Oracles.History.op) -> o.kind = Oracles.History.Write) ops
    && List.exists (fun (o : Oracles.History.op) -> o.kind = Oracles.History.Read) ops);
  List.iter
    (fun (o : Oracles.History.op) ->
      check_true "timestamp present" (o.Oracles.History.ts <> None))
    ops

(* [deploy] builds each family's clients and jobs: the SWSR families a
   writer and a reader, MWMR two processes sharing the operations; every
   operation lands in the tally. *)
let test_deploy_families () =
  List.iter
    (fun (family, names) ->
      let scn = async_scenario () in
      let tally = Harness.Workload.tally () in
      let jobs =
        Harness.Workload.deploy scn family ~writes:4 ~reads:6 ~read_budget:64
          ~gap:(Harness.Workload.gap 0 5) ~tally
      in
      let label = Oracles.Stabilization.family_to_string family in
      Alcotest.(check (list string)) (label ^ " jobs") names (List.map fst jobs);
      run_fibers scn jobs;
      let total (t : Registers.Outcome.tally) = t.ok + t.degraded + t.timed_out in
      check_int (label ^ " ops tallied") 10 (total tally.writes + total tally.reads);
      match family with
      | Oracles.Stabilization.Regular | Oracles.Stabilization.Atomic ->
        check_int (label ^ " writes tallied") 4 (total tally.writes)
      | Oracles.Stabilization.Mwmr -> ())
    [
      (Oracles.Stabilization.Regular, [ "writer"; "reader" ]);
      (Oracles.Stabilization.Atomic, [ "writer"; "reader" ]);
      (Oracles.Stabilization.Mwmr, [ "p0"; "p1" ]);
    ]

let tests =
  [
    case "gap validation" test_gap_validation;
    case "values distinct" test_values_distinct_across_writers;
    case "writer job records" test_writer_job_records_history;
    case "reader job records" test_reader_job_records_history;
    case "mwmr job mixes and stamps" test_mwmr_job_mixes_and_stamps;
    case "deploy builds each family" test_deploy_families;
  ]
