open Util
open Registers

let plant_poison scn ~servers ~sn v =
  List.iter
    (fun s ->
      let srv = Byzantine.Adversary.server scn.Harness.Scenario.adversary s in
      let i = Server.instance srv 0 in
      i.Server.last_val <- { Messages.sn; v })
    servers

let test_nonstab_normal_operation () =
  let scn = async_scenario () in
  Baseline.Nonstab.install_servers ~net:scn.Harness.Scenario.net
    (Byzantine.Adversary.servers scn.Harness.Scenario.adversary);
  let w = Baseline.Nonstab.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Baseline.Nonstab.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let got = ref None in
  run_fiber scn "wr" (fun () ->
      Baseline.Nonstab.write w (int_value 1);
      Baseline.Nonstab.write w (int_value 2);
      got := Baseline.Nonstab.read r);
  Alcotest.(check (option value)) "classical read" (Some (int_value 2)) !got;
  check_int "timestamps grow" 2 (Baseline.Nonstab.timestamp w)

let test_nonstab_poisoned_timestamp_wedges () =
  (* The classic non-self-stabilizing failure: t+1 servers wake up with an
     agreed-upon huge timestamp.  Reads return the poison forever, no
     matter how much the writer writes. *)
  let scn = async_scenario ~seed:3 () in
  Baseline.Nonstab.install_servers ~net:scn.Harness.Scenario.net
    (Byzantine.Adversary.servers scn.Harness.Scenario.adversary);
  let w = Baseline.Nonstab.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Baseline.Nonstab.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let poison = Value.str "poison" in
  let observed = ref [] in
  run_fiber scn "wr" (fun () ->
      Baseline.Nonstab.write w (int_value 1);
      plant_poison scn ~servers:[ 4; 5; 6 ] ~sn:1_000_000 poison;
      for i = 2 to 8 do
        Baseline.Nonstab.write w (int_value i);
        observed := Baseline.Nonstab.read r :: !observed
      done);
  List.iter
    (fun v ->
      Alcotest.(check (option value)) "poison returned forever" (Some poison) v)
    !observed

let test_paper_register_shrugs_off_same_poison () =
  (* The identical poisoned configuration against the Fig. 3 register: the
     2t+1 quorum requirement makes the two poisoned servers irrelevant. *)
  let scn = async_scenario ~seed:3 () in
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
  let poison = Value.str "poison" in
  let observed = ref [] in
  run_fiber scn "wr" (fun () ->
      ignore (Swsr_atomic.write w (int_value 1));
      plant_poison scn ~servers:[ 4; 5; 6 ] ~sn:1_000_000 poison;
      for i = 2 to 8 do
        ignore (Swsr_atomic.write w (int_value i));
        observed := (i, Outcome.to_option (Swsr_atomic.read r)) :: !observed
      done);
  List.iter
    (fun (i, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "correct value %d" i)
        (Some (int_value i))
        v)
    !observed

let test_nonstab_writer_rollback_wedges () =
  (* Rolling the writer's volatile counter back has the same effect: new
     writes carry stale timestamps and lose to the old value. *)
  let scn = async_scenario ~seed:4 () in
  Baseline.Nonstab.install_servers ~net:scn.Harness.Scenario.net
    (Byzantine.Adversary.servers scn.Harness.Scenario.adversary);
  let w = Baseline.Nonstab.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Baseline.Nonstab.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let observed = ref [] in
  run_fiber scn "wr" (fun () ->
      for i = 1 to 20 do
        Baseline.Nonstab.write w (int_value i)
      done;
      Baseline.Nonstab.corrupt_writer w (Harness.Scenario.split_rng scn);
      check_true "rolled back" (Baseline.Nonstab.timestamp w < 20);
      Baseline.Nonstab.write w (int_value 100);
      observed := [ Baseline.Nonstab.read r ]);
  List.iter
    (fun v ->
      Alcotest.(check (option value))
        "stale value wins over the rolled-back write" (Some (int_value 20)) v)
    !observed

let test_quiescent_fine_when_quiescent () =
  let scn = async_scenario ~seed:5 () in
  let w = Baseline.Quiescent.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let r = Baseline.Quiescent.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let got = ref None in
  run_fiber scn "wr" (fun () ->
      Baseline.Quiescent.write w (int_value 6);
      got := Baseline.Quiescent.read r);
  Alcotest.(check (option value)) "quiescent read fine" (Some (int_value 6)) !got

let read_pressure_comparison seed =
  (* Continuous-writer pressure against both designs, each at its own
     paper's sizing: the quiescence-dependent register of [3] at
     n = 5t+1 + 1 = 6, the helping register at n = 8t+1 = 9.  At the [3]
     sizing a read round can find no 2t+1 agreement while a write is in
     flight, so without quiescence some reads starve — the phenomenon the
     helping mechanism removes.  Report (quiescent failures, quiescent
     iterations, helping failures, helping iterations). *)
  (* Quiescence-dependent register. *)
  let scn1 =
    Harness.Scenario.create ~seed
      ~params:(Params.create_unchecked ~n:6 ~f:1 ~mode:Params.Async ()) ()
  in
  Byzantine.Adversary.compromise scn1.Harness.Scenario.adversary 0
    Byzantine.Behavior.equivocate;
  let qw = Baseline.Quiescent.writer ~net:scn1.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let qr = Baseline.Quiescent.reader ~net:scn1.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let q_fail = ref 0 in
  run_fibers scn1
    [
      ( "writer",
        fun () ->
          for i = 1 to 80 do
            Baseline.Quiescent.write qw (int_value i)
          done );
      ( "reader",
        fun () ->
          for _ = 1 to 12 do
            match Baseline.Quiescent.read ~max_iterations:4 qr with
            | None -> incr q_fail
            | Some _ -> ()
          done );
    ];
  (* The paper's register with the helping mechanism. *)
  let scn2 = async_scenario ~seed ~n:9 ~f:1 () in
  Byzantine.Adversary.compromise scn2.Harness.Scenario.adversary 0
    Byzantine.Behavior.equivocate;
  let hw = Swsr_regular.writer ~net:scn2.Harness.Scenario.net ~client_id:100 ~inst:0 in
  let hr = Swsr_regular.reader ~net:scn2.Harness.Scenario.net ~client_id:101 ~inst:0 in
  let h_fail = ref 0 in
  run_fibers scn2
    [
      ( "writer",
        fun () ->
          for i = 1 to 80 do
            ignore (Swsr_regular.write hw (int_value i))
          done );
      ( "reader",
        fun () ->
          for _ = 1 to 12 do
            match
              Outcome.to_option (Swsr_regular.read ~max_iterations:4 hr)
            with
            | None -> incr h_fail
            | Some _ -> ()
          done );
    ];
  (!q_fail, Baseline.Quiescent.reader_iterations qr, !h_fail,
   Swsr_regular.reader_iterations hr)

let test_helping_beats_quiescence_under_pressure () =
  (* Aggregated over seeds: the helping register never fails, and spends
     no more iterations than the quiescence-dependent one. *)
  let q_fails = ref 0 and h_fails = ref 0 in
  let q_iters = ref 0 and h_iters = ref 0 in
  for seed = 1 to 10 do
    let qf, qi, hf, hi = read_pressure_comparison seed in
    q_fails := !q_fails + qf;
    h_fails := !h_fails + hf;
    q_iters := !q_iters + qi;
    h_iters := !h_iters + hi
  done;
  check_int "helping register never fails" 0 !h_fails;
  check_true "helping needs no more iterations" (!h_iters <= !q_iters);
  (* The phenomenon the paper's [3]-comparison predicts: without helping,
     continuous writes starve some reads. *)
  check_true "quiescent register worse on some schedule"
    (!q_fails > 0 || !q_iters > !h_iters)

let tests =
  [
    case "nonstab normal operation" test_nonstab_normal_operation;
    case "nonstab poisoned timestamp wedges" test_nonstab_poisoned_timestamp_wedges;
    case "paper register shrugs off poison" test_paper_register_shrugs_off_same_poison;
    case "nonstab writer rollback wedges" test_nonstab_writer_rollback_wedges;
    case "quiescent register, quiescent writer" test_quiescent_fine_when_quiescent;
    case "helping beats quiescence under pressure" test_helping_beats_quiescence_under_pressure;
  ]
