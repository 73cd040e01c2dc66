open Util
open Registers

(* Run one write+read against a deployment with server 0 compromised by the
   given behavior; return what the read saw. *)
let run_with_behavior ?(seed = 7) behavior =
  let scn = async_scenario ~seed () in
  (match behavior with
  | Some b -> Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0 (b scn)
  | None -> ());
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let got = ref None in
  run_fiber scn "wr" (fun () ->
      ignore (Swsr_regular.write w (int_value 8));
      got := Outcome.to_option (Swsr_regular.read r));
  (scn, !got)

let test_silent () =
  let _, got = run_with_behavior (Some (fun _ -> Byzantine.Behavior.silent)) in
  Alcotest.(check (option value)) "tolerated" (Some (int_value 8)) got

let test_garbage () =
  let _, got = run_with_behavior (Some (fun _ -> Byzantine.Behavior.garbage)) in
  Alcotest.(check (option value)) "tolerated" (Some (int_value 8)) got

let test_equivocate () =
  let _, got = run_with_behavior (Some (fun _ -> Byzantine.Behavior.equivocate)) in
  Alcotest.(check (option value)) "tolerated" (Some (int_value 8)) got

let test_frozen () =
  let _, got =
    run_with_behavior
      (Some
         (fun scn ->
           Byzantine.Behavior.frozen
             (Byzantine.Adversary.server scn.Harness.Scenario.adversary 0)))
  in
  Alcotest.(check (option value)) "tolerated" (Some (int_value 8)) got

let test_flaky () =
  let _, got =
    run_with_behavior
      (Some
         (fun scn ->
           Byzantine.Behavior.flaky ~drop_probability:0.5
             (Byzantine.Adversary.server scn.Harness.Scenario.adversary 0)))
  in
  Alcotest.(check (option value)) "tolerated" (Some (int_value 8)) got

let test_delayed () =
  let _, got =
    run_with_behavior
      (Some
         (fun scn ->
           Byzantine.Behavior.delayed ~by:500
             (Byzantine.Adversary.server scn.Harness.Scenario.adversary 0)))
  in
  Alcotest.(check (option value)) "tolerated" (Some (int_value 8)) got

(* Soak a concurrent writer/reader pair over an atomic register with the
   given slot-0 behavior and assert the whole history is atomic (no
   cutoff: there are no transient faults, only the Byzantine server). *)
let soak_atomic_with ?(seed = 23) behavior =
  let scn = async_scenario ~seed () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    (behavior scn);
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~write:(Swsr_atomic.write w)
            ~count:120 ~gap:(Harness.Workload.gap 0 15) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn
            ~read:(fun () -> Swsr_atomic.read r)
            ~count:100 ~gap:(Harness.Workload.gap 0 20) () );
    ];
  let h = scn.Harness.Scenario.history in
  check_int "all reads answered" 100 (Harness.Metrics.ok_reads h);
  let report = Oracles.Atomicity.Sw.check h in
  if not (Oracles.Atomicity.Sw.is_clean report) then
    Alcotest.failf "%a" Oracles.Atomicity.Sw.pp report

let test_flaky_soak_atomic () =
  soak_atomic_with (fun scn ->
      Byzantine.Behavior.flaky ~drop_probability:0.5
        (Byzantine.Adversary.server scn.Harness.Scenario.adversary 0))

let test_delayed_soak_atomic () =
  soak_atomic_with (fun scn ->
      Byzantine.Behavior.delayed ~by:40
        (Byzantine.Adversary.server scn.Harness.Scenario.adversary 0))

let test_collude_below_threshold_harmless () =
  let junk = { Messages.sn = 999; v = Value.str "forged" } in
  let _, got =
    run_with_behavior (Some (fun _ -> Byzantine.Behavior.collude ~cell:junk))
  in
  Alcotest.(check (option value)) "single colluder harmless"
    (Some (int_value 8)) got

let test_collude_at_quorum_forges_reads () =
  (* 2t+1 = 3 colluders (more than the assumed t = 1) agreeing on a forged
     cell reach the read quorum: safety collapses, as the resilience bound
     predicts when the Byzantine assumption is violated. *)
  let scn = async_scenario ~seed:9 () in
  let junk = { Messages.sn = 999; v = Value.str "forged" } in
  for s = 0 to 2 do
    Byzantine.Adversary.compromise scn.Harness.Scenario.adversary s
      (Byzantine.Behavior.collude ~cell:junk)
  done;
  let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let got = ref None in
  run_fiber scn "r" (fun () -> got := Outcome.to_option (Swsr_regular.read r));
  Alcotest.(check (option value)) "forged value read"
    (Some (Value.str "forged")) !got

let test_crash_after () =
  let scn = async_scenario ~seed:17 () in
  let srv = Byzantine.Adversary.server scn.Harness.Scenario.adversary 0 in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    (Byzantine.Behavior.crash_after 3 srv);
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let results = ref [] in
  run_fiber scn "wr" (fun () ->
      for i = 1 to 6 do
        ignore (Swsr_regular.write w (int_value i));
        results := (i, Outcome.to_option (Swsr_regular.read r)) :: !results
      done);
  List.iter
    (fun (i, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "op %d despite the crash" i)
        (Some (int_value i))
        v)
    !results

let test_adversary_bookkeeping () =
  let scn = async_scenario () in
  let adv = scn.Harness.Scenario.adversary in
  check_true "none initially" (Byzantine.Adversary.byzantine_ids adv = []);
  Byzantine.Adversary.compromise adv 4 Byzantine.Behavior.silent;
  Byzantine.Adversary.compromise adv 2 Byzantine.Behavior.garbage;
  check_true "tracked" (Byzantine.Adversary.byzantine_ids adv = [ 2; 4 ]);
  check_false "net ground truth" (Net.is_correct scn.Harness.Scenario.net 4);
  Byzantine.Adversary.restore adv 4;
  check_true "restored" (Byzantine.Adversary.byzantine_ids adv = [ 2 ]);
  check_true "correct again" (Net.is_correct scn.Harness.Scenario.net 4)

let test_restore_corrupts_state () =
  (* A machine released by the adversary holds arbitrary state. *)
  let scn = async_scenario () in
  let adv = scn.Harness.Scenario.adversary in
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  run_fiber scn "w" (fun () -> ignore (Swsr_regular.write w (int_value 1)));
  Byzantine.Adversary.compromise adv 0 Byzantine.Behavior.silent;
  Byzantine.Adversary.restore adv 0;
  let i = Server.instance (Byzantine.Adversary.server adv 0) 0 in
  check_false "state scrambled on hand-back"
    (Messages.cell_equal i.Server.last_val { Messages.sn = 0; v = int_value 1 })

let test_mobile_byzantine_between_ops () =
  (* Footnote 1: the Byzantine fault moves between operations; every
     post-move write re-establishes correctness. *)
  let scn = async_scenario ~seed:15 () in
  let adv = scn.Harness.Scenario.adversary in
  let w = Swsr_regular.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Swsr_regular.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  Byzantine.Adversary.compromise adv 0 Byzantine.Behavior.garbage;
  let results = ref [] in
  run_fiber scn "wr" (fun () ->
      for i = 1 to 8 do
        ignore (Swsr_regular.write w (int_value i));
        results := (i, Outcome.to_option (Swsr_regular.read r)) :: !results;
        (* Move the fault to the next server between operations. *)
        Byzantine.Adversary.move adv ~from:((i - 1) mod 9) ~to_:(i mod 9)
          Byzantine.Behavior.garbage
      done);
  List.iter
    (fun (i, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "correct despite mobility, op %d" i)
        (Some (int_value i))
        v)
    !results

let tests =
  [
    case "silent tolerated" test_silent;
    case "garbage tolerated" test_garbage;
    case "equivocation tolerated" test_equivocate;
    case "frozen tolerated" test_frozen;
    case "flaky tolerated" test_flaky;
    case "delayed tolerated" test_delayed;
    case "flaky soak stays atomic" test_flaky_soak_atomic;
    case "delayed soak stays atomic" test_delayed_soak_atomic;
    case "lone colluder harmless" test_collude_below_threshold_harmless;
    case "crash-stop tolerated" test_crash_after;
    case "collusion at quorum forges reads" test_collude_at_quorum_forges_reads;
    case "adversary bookkeeping" test_adversary_bookkeeping;
    case "restore corrupts state" test_restore_corrupts_state;
    case "mobile byzantine (footnote 1)" test_mobile_byzantine_between_ops;
  ]
