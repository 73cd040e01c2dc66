open Util
open Registers

let setup ?(seed = 7) ?(m = 3) ?(seq_bound = 1 lsl 61) ?(tie = `Min_index) ()
    =
  let scn = async_scenario ~seed () in
  let cfg = { (Mwmr.default_config ~m) with seq_bound; tie } in
  let procs =
    Array.init m (fun i ->
        Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:i
          ~client_id:(300 + i))
  in
  (scn, cfg, procs)

let test_write_then_read_same_process () =
  let scn, _, procs = setup () in
  let got = ref None in
  run_fiber scn "p0" (fun () ->
      ignore (Mwmr.write procs.(0) (int_value 9));
      got := Outcome.to_option (Mwmr.read procs.(0)));
  Alcotest.(check (option value)) "own write visible" (Some (int_value 9)) !got

let test_cross_process_visibility () =
  let scn, _, procs = setup () in
  let got = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          ignore (Mwmr.write procs.(0) (int_value 4));
          got := Outcome.to_option (Mwmr.read procs.(2)) );
    ];
  Alcotest.(check (option value)) "p2 sees p0's write" (Some (int_value 4)) !got

let test_last_writer_wins () =
  let scn, _, procs = setup () in
  let got = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          ignore (Mwmr.write procs.(0) (int_value 1));
          ignore (Mwmr.write procs.(1) (int_value 2));
          ignore (Mwmr.write procs.(2) (int_value 3));
          got := Outcome.to_option (Mwmr.read procs.(0)) );
    ];
  Alcotest.(check (option value)) "latest value" (Some (int_value 3)) !got

let run_mixed ?(ops = 12) ?(write_ratio = 0.5) ?(gap = Harness.Workload.gap 0 30)
    scn procs =
  run_fibers scn
    (Array.to_list
       (Array.mapi
          (fun i p ->
            ( Printf.sprintf "p%d" i,
              fun () ->
                Harness.Workload.mwmr_job scn
                  ~proc:(Printf.sprintf "p%d" i)
                  ~process:p ~ops ~write_ratio ~gap () ))
          procs))

let check_mw ~tie ?cutoff scn =
  let report =
    Oracles.Atomicity.Mw.check ?cutoff ~tie scn.Harness.Scenario.history
  in
  if not (Oracles.Atomicity.Mw.is_clean report) then
    Alcotest.failf "%a" Oracles.Atomicity.Mw.pp report

let test_concurrent_mixed_atomic () =
  let scn, cfg, procs = setup ~seed:5 () in
  run_mixed scn procs;
  check_mw ~tie:cfg.Mwmr.tie scn

let test_across_seeds () =
  for seed = 1 to 10 do
    let scn, cfg, procs = setup ~seed () in
    run_mixed ~ops:8 scn procs;
    check_mw ~tie:cfg.Mwmr.tie scn
  done

let test_max_index_tie_break () =
  for seed = 1 to 5 do
    let scn, cfg, procs = setup ~seed ~tie:`Max_index () in
    run_mixed ~ops:8 scn procs;
    check_mw ~tie:cfg.Mwmr.tie scn
  done

let test_with_byzantine () =
  let scn, cfg, procs = setup ~seed:9 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 6
    Byzantine.Behavior.garbage;
  run_mixed ~ops:8 scn procs;
  check_mw ~tie:cfg.Mwmr.tie scn

let test_epoch_wraparound_sequential () =
  (* Tiny seq bound: the active writer exhausts the sequence space and
     must open fresh epochs.  Reads by the writing process itself stay
     correct across every wrap (its own register always holds its last
     value, so the line-11 restamp is harmless for it). *)
  let scn, _, procs = setup ~seq_bound:3 () in
  let reads = ref [] in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          for k = 1 to 12 do
            ignore (Mwmr.write procs.(0) (int_value k));
            reads := (k, Outcome.to_option (Mwmr.read procs.(0))) :: !reads
          done );
    ];
  List.iter
    (fun (k, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "after write %d" k)
        (Some (int_value k))
        v)
    !reads;
  check_true "epochs were opened" (Mwmr.epochs_opened procs.(0) > 0)

let test_foreign_reader_at_exhaustion_restamps_own () =
  (* Paper-literal quirk of Fig. 4 line 11: a reader that finds the epoch
     exhausted restamps ITS OWN register's value into the fresh epoch and
     returns it — here Bot, since p1 never wrote.  The next write heals
     the register. *)
  let scn, _, procs = setup ~seq_bound:3 () in
  let at_boundary = ref None and healed = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          for k = 1 to 3 do
            ignore (Mwmr.write procs.(0) (int_value k))
          done;
          (* seq now equals the bound: p1's read crosses the boundary. *)
          at_boundary := Outcome.to_option (Mwmr.read procs.(1));
          ignore (Mwmr.write procs.(0) (int_value 4));
          healed := Outcome.to_option (Mwmr.read procs.(1)) );
    ];
  Alcotest.(check (option value)) "boundary read restamps p1's own value"
    (Some Registers.Value.bot) !at_boundary;
  check_true "p1 opened the epoch" (Mwmr.epochs_opened procs.(1) >= 1);
  Alcotest.(check (option value)) "healed by the next write"
    (Some (int_value 4)) !healed

let test_epoch_count_matches_bound () =
  let scn, _, procs = setup ~seq_bound:2 () in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          for k = 1 to 10 do
            ignore (Mwmr.write procs.(0) (int_value k))
          done );
    ];
  (* Sequence numbers 1..2 per epoch: roughly one epoch per two writes. *)
  check_true "several epochs"
    (Mwmr.epochs_opened procs.(0) >= 3 && Mwmr.epochs_opened procs.(0) <= 10)

let test_read_restamps_on_exhaustion () =
  (* Line 11 from the writing process's own perspective: its restamp
     carries its own (fresh) value, so the value survives. *)
  let scn, _, procs = setup ~seq_bound:1 () in
  let got = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          ignore (Mwmr.write procs.(0) (int_value 5));
          (* seq bound 1: the next operation sees seq >= bound. *)
          got := Outcome.to_option (Mwmr.read procs.(0)) );
    ];
  Alcotest.(check (option value)) "value survives restamping"
    (Some (int_value 5)) !got;
  check_true "reader opened an epoch" (Mwmr.epochs_opened procs.(0) >= 1)

let test_recovers_from_server_corruption () =
  let scn, cfg, procs = setup ~seed:14 () in
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int 800)
    ~prefix:"server.";
  run_mixed ~ops:16 ~gap:(Harness.Workload.gap 0 40) scn procs;
  (* After the fault, find a quiescent point: the first operation invoked
     after every pre-fault-started operation responded. *)
  let ops = Oracles.History.ops scn.Harness.Scenario.history in
  let post = List.filter (fun (o : Oracles.History.op) -> Sim.Vtime.to_int o.inv >= 800) ops in
  (* Skip the first few post-fault ops (they absorb the debris), then
     demand atomicity.  Lemma 16's clock starts at the first non-concurrent
     operation; skipping a prefix approximates it conservatively. *)
  (match List.nth_opt post (List.length post / 2) with
  | Some o -> check_mw ~tie:cfg.Mwmr.tie ~cutoff:o.Oracles.History.inv scn
  | None -> Alcotest.fail "no post-fault operations")

let tests =
  [
    case "write/read same process" test_write_then_read_same_process;
    case "cross-process visibility" test_cross_process_visibility;
    case "last writer wins" test_last_writer_wins;
    case "concurrent mixed atomic" test_concurrent_mixed_atomic;
    case "across seeds" test_across_seeds;
    case "Max_index tie-break" test_max_index_tie_break;
    case "byzantine server" test_with_byzantine;
    case "epoch wrap (sequential)" test_epoch_wraparound_sequential;
    case "foreign reader at exhaustion (line 11)" test_foreign_reader_at_exhaustion_restamps_own;
    case "epoch count vs bound" test_epoch_count_matches_bound;
    case "read restamps on exhaustion" test_read_restamps_on_exhaustion;
    case "recovers from corruption (Thm 4)" test_recovers_from_server_corruption;
  ]
