open Util
open Chaos

(* --- strategies --- *)

let test_strategy_round_trip () =
  List.iter
    (fun s ->
      match Strategy.of_string (Strategy.to_string s) with
      | Ok s' ->
        check_true ("round-trip " ^ Strategy.to_string s) (Strategy.equal s s')
      | Error e -> Alcotest.fail e)
    [
      Strategy.Silent;
      Strategy.Garbage;
      Strategy.Equivocate;
      Strategy.Frozen;
      Strategy.Collude;
      Strategy.Flaky 0.3341;
      Strategy.Flaky (1.0 /. 3.0);
      Strategy.Flaky 0.0;
      Strategy.Flaky 1.0;
      Strategy.Delayed 40;
      Strategy.Delayed 0;
      Strategy.Crash 5;
      Strategy.Crash 0;
      Strategy.Crash_recover { down = 120; wipe = `Arbitrary };
      Strategy.Crash_recover { down = 0; wipe = `Reset };
      Strategy.Crash_recover { down = 1; wipe = `Keep };
    ];
  check_true "unknown name rejected"
    (Result.is_error (Strategy.of_string "nonsense"));
  check_true "bad probability rejected"
    (Result.is_error (Strategy.of_string "flaky:2.0"));
  check_true "bad wipe rejected"
    (Result.is_error (Strategy.of_string "crashrec:10:everything"));
  check_true "missing wipe rejected"
    (Result.is_error (Strategy.of_string "crashrec:10"))

(* Satellite: the %.17g float path and every other constructor, as a
   generated property rather than a hand-picked list. *)
let gen_strategy =
  QCheck.Gen.(
    let* tag = int_range 0 8 in
    match tag with
    | 0 -> return Strategy.Silent
    | 1 -> return Strategy.Garbage
    | 2 -> return Strategy.Equivocate
    | 3 -> return Strategy.Frozen
    | 4 -> return Strategy.Collude
    | 5 ->
      (* Edge probabilities included: 0 and 1 are legal and must
         round-trip through the %.17g printer exactly. *)
      let* p = oneof [ return 0.0; return 1.0; float_bound_inclusive 1.0 ] in
      return (Strategy.Flaky p)
    | 6 ->
      let* t = oneof [ return 0; int_range 0 10_000 ] in
      return (Strategy.Delayed t)
    | 7 ->
      let* k = oneof [ return 0; int_range 0 1_000 ] in
      return (Strategy.Crash k)
    | _ ->
      let* down = oneof [ return 0; int_range 0 10_000 ] in
      let* wipe = oneofl [ `Arbitrary; `Reset; `Keep ] in
      return (Strategy.Crash_recover { down; wipe }))

let prop_strategy_round_trip =
  QCheck.Test.make ~count:500
    ~name:"every strategy wire name round-trips exactly"
    (QCheck.make gen_strategy ~print:Strategy.to_string)
    (fun s ->
      match Strategy.of_string (Strategy.to_string s) with
      | Ok s' -> Strategy.equal s s'
      | Error e -> QCheck.Test.fail_report e)

(* --- schedules --- *)

let cfg = Campaign.default_config ~family:Campaign.Regular

let test_generate_deterministic () =
  let a = Campaign.generate cfg ~seed:99 in
  let b = Campaign.generate cfg ~seed:99 in
  check_true "same seed, same schedule" (Schedule.equal a b);
  let c = Campaign.generate cfg ~seed:100 in
  check_true "different seed, different schedule" (not (Schedule.equal a c));
  check_true "sorted by time"
    (List.for_all2
       (fun x y -> Schedule.time x <= Schedule.time y)
       a (List.tl a @ [ List.nth a (List.length a - 1) ]))

let test_schedule_json_round_trip () =
  let lossy_cfg = { cfg with Campaign.medium = Campaign.Lossy } in
  let sched = Campaign.generate lossy_cfg ~seed:4242 in
  check_true "windows generated under the lossy medium"
    (List.exists (function Schedule.Window _ -> true | _ -> false) sched);
  match Schedule.of_json (Schedule.to_json sched) with
  | Ok sched' ->
    check_true "schedule JSON round-trips exactly (floats included)"
      (Schedule.equal sched sched')
  | Error e -> Alcotest.fail e

let test_disturbance_points () =
  let sched =
    [
      Schedule.Inject { at = 100; prefix = "server." };
      Schedule.Window
        {
          at = 50;
          duration = 30;
          loss = 1.0;
          dup = 0.0;
          dir = Schedule.Both;
          server = None;
        };
      Schedule.Roam { at = 100; assign = [] };
    ]
  in
  check_true "window close included, duplicates merged"
    (Schedule.disturbance_points sched = [ 50; 80; 100 ])

let test_crash_events_round_trip () =
  let sched =
    Schedule.sort
      [
        Schedule.Crash { at = 40; server = 2; down_for = Some 120 };
        Schedule.Crash { at = 90; server = 0; down_for = None };
        Schedule.Inject { at = 10; prefix = "server." };
      ]
  in
  check_true "recovery instants are disturbance points"
    (Schedule.disturbance_points sched = [ 10; 40; 90; 160 ]);
  match Schedule.of_json (Schedule.to_json sched) with
  | Ok sched' ->
    check_true "crash events JSON round-trip" (Schedule.equal sched sched')
  | Error e -> Alcotest.fail e

(* --- crash-recovery bursts and the stabilization oracle --- *)

let test_recovery_run_and_artifact () =
  let cfg =
    {
      Recovery.default_config with
      Recovery.n = 6;
      bursts = 1;
      crashed = 1;
      down_for = 40;
      first_at = 60;
      gap = 400;
      writes = 20;
      reads = 24;
      gap_hi = 4;
    }
  in
  let r = Recovery.run cfg ~seed:21 in
  check_true "no stuck fibers" (r.Recovery.stuck = []);
  check_true "the burst stabilized" r.Recovery.converged;
  check_int "every write accounted for" cfg.Recovery.writes
    (r.Recovery.write_ops.Registers.Outcome.ok
    + r.Recovery.write_ops.Registers.Outcome.degraded
    + r.Recovery.write_ops.Registers.Outcome.timed_out);
  check_int "every read accounted for" cfg.Recovery.reads
    (r.Recovery.read_ops.Registers.Outcome.ok
    + r.Recovery.read_ops.Registers.Outcome.degraded
    + r.Recovery.read_ops.Registers.Outcome.timed_out);
  (match Recovery.of_json (Recovery.to_json r) with
  | Error e -> Alcotest.fail e
  | Ok r' -> check_true "report JSON round-trips" (Recovery.matches r r'));
  let replayed = Recovery.replay r in
  check_true "replay is bit-identical" (Recovery.matches r replayed)

(* --- trials --- *)

let test_run_trial_deterministic () =
  let sched = Campaign.generate cfg ~seed:7 in
  let a = Campaign.run_trial cfg ~seed:7 sched in
  let b = Campaign.run_trial cfg ~seed:7 sched in
  check_true "same verdict" (Stab.same_kind a.verdict b.verdict);
  check_int "same op count" a.Campaign.ops b.Campaign.ops;
  check_int "same duration" a.Campaign.duration b.Campaign.duration

let test_campaign_clean_under_bound () =
  (* Within t < n/8 every generated schedule must leave the register
     regular after each stabilizing write. *)
  let r = Campaign.run cfg ~seed:5 ~trials:3 in
  check_int "no violations under the bound" 0
    (List.length (Campaign.violations r));
  List.iter
    (fun (t : Campaign.trial) ->
      check_true "clean trials carry no repro" (t.repro = None))
    r.Campaign.trials

let test_campaign_atomic_lossy_clean () =
  let lossy_cfg =
    {
      (Campaign.default_config ~family:Campaign.Atomic) with
      Campaign.medium = Campaign.Lossy;
    }
  in
  let r = Campaign.run lossy_cfg ~seed:5 ~trials:2 in
  check_int "atomic over lossy links stays clean" 0
    (List.length (Campaign.violations r))

(* --- violations, shrinking, replay --- *)

let collude_cfg =
  {
    cfg with
    Campaign.initial =
      [
        (0, Strategy.Collude); (1, Strategy.Collude); (2, Strategy.Collude);
      ];
  }

let test_collusion_above_bound_violates_and_replays () =
  let r = Campaign.run collude_cfg ~seed:11 ~trials:1 in
  match Campaign.violations r with
  | [ t ] -> (
    check_true "regularity violated"
      (Stab.verdict_kind t.outcome.Campaign.verdict = "regularity");
    match t.repro with
    | None -> Alcotest.fail "violating trial must carry a repro"
    | Some repro ->
      (* The violation lives in the config (initial colluders), so the
         minimal schedule is empty. *)
      check_int "shrunk to the empty schedule" 0
        (List.length repro.Campaign.schedule);
      (* The artifact round-trips through JSON and replays to the same
         verdict. *)
      let json =
        Obs.Json.parse_exn
          (Obs.Json.to_string (Campaign.repro_to_json repro))
      in
      (match Campaign.repro_of_json json with
      | Error e -> Alcotest.fail e
      | Ok repro' ->
        check_true "repro JSON round-trips"
          (Schedule.equal repro.Campaign.schedule repro'.Campaign.schedule
          && repro.Campaign.seed = repro'.Campaign.seed);
        let replayed = Campaign.replay repro' in
        check_true "replay reproduces the verdict"
          (Stab.same_kind replayed.Campaign.verdict
             repro.Campaign.verdict)))
  | other -> Alcotest.failf "expected 1 violation, got %d" (List.length other)

let test_shrink_keeps_the_essential_roam () =
  (* A hand-crafted schedule: noise injections around one mobile sweep
     that installs a colluding quorum (3 = 2t+1 at n=9) on the
     lowest-numbered slots — the reader's quorum scan walks slots in
     order, so only there are the colluders seen before the honest
     majority.  Shrinking must strip the noise but keep the roam, and
     keep all three colluders (dropping any one dissolves the quorum). *)
  let colluders =
    [
      (0, Strategy.Collude); (1, Strategy.Collude); (2, Strategy.Collude);
    ]
  in
  let sched =
    Schedule.sort
      [
        Schedule.Inject { at = 200; prefix = "server." };
        Schedule.Inject { at = 400; prefix = "client." };
        Schedule.Roam { at = 600; assign = colluders };
        Schedule.Inject { at = 800; prefix = "link." };
        Schedule.Inject { at = 1000; prefix = "server.2" };
      ]
  in
  let outcome = Campaign.run_trial cfg ~seed:31 sched in
  check_true "colluding roam violates regularity"
    (Stab.verdict_kind outcome.Campaign.verdict = "regularity");
  let shrunk, runs =
    Campaign.shrink cfg ~seed:31 sched outcome.Campaign.verdict
  in
  check_true "shrinking re-executed the trial" (runs > 0);
  (match shrunk with
  | [ Schedule.Roam { assign; _ } ] ->
    check_int "all three colluders essential" 3 (List.length assign)
  | _ ->
    Alcotest.failf "expected exactly the roam to survive, got %d event(s)"
      (List.length shrunk));
  (* The minimal schedule still reproduces. *)
  let replayed = Campaign.run_trial cfg ~seed:31 shrunk in
  check_true "minimal schedule reproduces"
    (Stab.same_kind replayed.Campaign.verdict outcome.Campaign.verdict)

(* --- mobile adversary bookkeeping --- *)

let test_roam_bookkeeping () =
  let scn = async_scenario ~n:17 ~f:2 () in
  let adv = scn.Harness.Scenario.adversary in
  Byzantine.Adversary.roam adv
    [ (1, Byzantine.Behavior.silent); (4, Byzantine.Behavior.garbage) ];
  check_true "both compromised" (Byzantine.Adversary.byzantine_ids adv = [ 1; 4 ]);
  Byzantine.Adversary.roam adv [ (4, Byzantine.Behavior.silent); (6, Byzantine.Behavior.silent) ];
  check_true "set moved" (Byzantine.Adversary.byzantine_ids adv = [ 4; 6 ]);
  check_true "vacated slot correct again"
    (Registers.Net.is_correct scn.Harness.Scenario.net 1);
  Byzantine.Adversary.roam adv [];
  check_true "adversary retired" (Byzantine.Adversary.byzantine_ids adv = []);
  check_true "all correct"
    (List.for_all
       (Registers.Net.is_correct scn.Harness.Scenario.net)
       (List.init 17 Fun.id))

(* --- a pinned lossy campaign --- *)

(* The regular family over the lossy medium, with transient injections and
   link-chaos windows but no roams and no initial compromise: the
   ss-transport's retransmissions under fault injection, which no other
   byte-level pin reaches.  Every trial's traffic counters and verdict
   are pinned by one digest. *)
let test_lossy_campaign_pinned () =
  let lossy_cfg =
    {
      cfg with
      Campaign.medium = Campaign.Lossy;
      initial = [];
      roams = 0;
    }
  in
  let trials = 20 in
  let scenarios = Array.make trials None in
  let on_scenario ~trial scn = scenarios.(trial) <- Some scn in
  let r =
    Campaign.run ~on_scenario ~shrink_violations:false lossy_cfg ~seed:1 ~trials
  in
  let line (t : Campaign.trial) =
    let counter name =
      match scenarios.(t.index) with
      | Some scn -> Obs.Metrics.counter (Harness.Scenario.metrics scn) name
      | None -> Alcotest.failf "trial %d deployed no scenario" t.index
    in
    Printf.sprintf
      "%d %d %s ops=%d duration=%d msgs=%d pkts=%d dropped=%d retrans=%d\n"
      t.index t.events
      (Campaign.verdict_kind t.outcome.verdict)
      t.outcome.ops t.outcome.duration (counter "net.msgs")
      (counter "net.pkts") (counter "net.dropped")
      (counter "transport.retrans")
  in
  check_int "trials" trials (List.length r.trials);
  Alcotest.(check string)
    "per-trial traffic and verdicts" "992cec9135fa2edbf7e065383dbceb45"
    (Digest.to_hex (Digest.string (String.concat "" (List.map line r.trials))))

(* An over-bound burst (7 of 9 slots down for 400 ticks) makes writes
   finish in all three ways and reads ok or timed out.  The run's
   [recovery.<op>.<kind>] counters must equal its report's tallies, kind
   by kind, and a kind no operation finished as has no counter. *)
let test_recovery_counters_match_tallies () =
  let cfg = { Recovery.default_config with Recovery.crashed = 7; down_for = 400 } in
  let scn = ref None in
  let r = Recovery.run ~on_scenario:(fun s -> scn := Some s) cfg ~seed:42 in
  let metrics =
    match !scn with
    | Some s -> Harness.Scenario.metrics s
    | None -> Alcotest.fail "no scenario"
  in
  List.iter
    (fun (op, (t : Registers.Outcome.tally)) ->
      List.iter
        (fun (kind, n) ->
          let name = Printf.sprintf "recovery.%s.%s" op kind in
          check_int name n (Obs.Metrics.counter metrics name))
        [ ("ok", t.ok); ("degraded", t.degraded); ("timeout", t.timed_out) ])
    [ ("write", r.Recovery.write_ops); ("read", r.Recovery.read_ops) ];
  check_true "some operations failed"
    (r.Recovery.write_ops.Registers.Outcome.timed_out > 0
    && r.Recovery.read_ops.Registers.Outcome.timed_out > 0);
  List.iter
    (fun (name, v) ->
      if String.starts_with ~prefix:"recovery." name then
        check_true (name ^ " is not zero") (v > 0))
    (Obs.Metrics.counters metrics)

let tests =
  [
    case "strategy wire names round-trip" test_strategy_round_trip;
    qcheck prop_strategy_round_trip;
    case "generation is seed-deterministic" test_generate_deterministic;
    case "schedule JSON round-trips" test_schedule_json_round_trip;
    case "crash events round-trip" test_crash_events_round_trip;
    case "crash-recovery burst stabilizes and replays"
      test_recovery_run_and_artifact;
    case "recovery counters equal the report's tallies"
      test_recovery_counters_match_tallies;
    case "disturbance points" test_disturbance_points;
    case "trials are seed-deterministic" test_run_trial_deterministic;
    case "campaign clean under the bound" test_campaign_clean_under_bound;
    case "atomic campaign over lossy links" test_campaign_atomic_lossy_clean;
    case "lossy campaign traffic pinned" test_lossy_campaign_pinned;
    case "collusion above the bound: violate, shrink, replay"
      test_collusion_above_bound_violates_and_replays;
    case "shrinking keeps the essential roam" test_shrink_keeps_the_essential_roam;
    case "mobile roam bookkeeping" test_roam_bookkeeping;
  ]
