open Util
open Registers

(* Figure 5: the synchronous model tolerates t < n/3 — here n = 4, t = 1,
   far below the asynchronous n >= 8t+1 requirement. *)
let setup ?(seed = 7) ?(n = 4) ?(f = 1) () =
  let scn = sync_scenario ~seed ~n ~f () in
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  (scn, w, r)

let concurrent_workload ?(writes = 20) ?(reads = 20) scn w r =
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~write:(Swsr_regular.write w)
            ~count:writes ~gap:(Harness.Workload.gap 0 20) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn
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

let test_write_then_read () =
  let scn, w, r = setup () in
  let got = ref None in
  run_fiber scn "wr" (fun () ->
      ignore (Swsr_regular.write w (int_value 9));
      got := Outcome.to_option (Swsr_regular.read r));
  Alcotest.(check (option value)) "read back" (Some (int_value 9)) !got

let test_concurrent_regular () =
  let scn, w, r = setup () in
  concurrent_workload scn w r;
  check_regular scn

let test_across_seeds () =
  for seed = 1 to 15 do
    let scn, w, r = setup ~seed () in
    concurrent_workload ~writes:10 ~reads:10 scn w r;
    check_regular scn
  done

let test_silent_byzantine_times_out_not_hangs () =
  (* A silent Byzantine server forces every wait to run to its timeout;
     operations must still terminate and be regular — the whole point of
     the t < n/3 synchronous construction. *)
  let scn, w, r = setup ~seed:3 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 2
    Byzantine.Behavior.silent;
  concurrent_workload scn w r;
  check_regular scn

let test_garbage_byzantine () =
  let scn, w, r = setup ~seed:4 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    Byzantine.Behavior.garbage;
  concurrent_workload scn w r;
  check_regular scn

let test_n7_f2 () =
  let scn, w, r = setup ~n:7 ~f:2 ~seed:5 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 1
    Byzantine.Behavior.silent;
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 4
    Byzantine.Behavior.equivocate;
  concurrent_workload ~writes:12 ~reads:12 scn w r;
  check_regular scn

let test_stabilizes_after_corruption () =
  let scn, w, r = setup ~seed:6 () in
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int 400)
    ~prefix:"server.";
  concurrent_workload ~writes:30 ~reads:30 scn w r;
  check_regular ~lo:400 scn

let test_sync_atomic_variant () =
  (* The §4 remark: the same Fig. 3 extension works over synchronous links
     with t < n/3. *)
  let scn = sync_scenario ~seed:8 ~n:4 ~f:1 () in
  let w =
    Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 ()
  in
  let r =
    Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 ()
  in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 3
    Byzantine.Behavior.garbage;
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~write:(Swsr_atomic.write w)
            ~count:20 ~gap:(Harness.Workload.gap 0 15) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn
            ~read:(fun () -> Swsr_atomic.read r)
            ~count:20 ~gap:(Harness.Workload.gap 0 15) () );
    ];
  let h = scn.Harness.Scenario.history in
  let cutoff =
    match Oracles.Stabilization.cutoff_from h ~lo:0 with
    | Some c -> c
    | None -> Alcotest.fail "no writes"
  in
  let report = Oracles.Atomicity.Sw.check ~cutoff h in
  if not (Oracles.Atomicity.Sw.is_clean report) then
    Alcotest.failf "%a" Oracles.Atomicity.Sw.pp report

let tests =
  [
    case "write then read (n=4, t=1)" test_write_then_read;
    case "concurrent regular" test_concurrent_regular;
    case "across seeds" test_across_seeds;
    case "silent byzantine, timeouts" test_silent_byzantine_times_out_not_hangs;
    case "garbage byzantine" test_garbage_byzantine;
    case "n=7 t=2 mixed adversary" test_n7_f2;
    case "stabilizes after corruption (Thm 2)" test_stabilizes_after_corruption;
    case "sync atomic variant (§4 remark)" test_sync_atomic_variant;
  ]
