(* Cross-cutting composition coverage: the SWMR/MWMR/KV layers over the
   synchronous model (§3.3 / end of §4: every construction carries over
   with the t < n/3 thresholds), and many register instances multiplexed
   over the same servers. *)

open Util
open Registers

(* --- compositions over the synchronous model, n = 3t+1 --- *)

let test_swmr_sync () =
  let scn = sync_scenario ~seed:5 ~n:4 ~f:1 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 1
    Byzantine.Behavior.silent;
  let net = scn.Harness.Scenario.net in
  let w = Swmr.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
  let r0 = Swmr.reader ~net ~client_id:200 ~base_inst:0 ~reader_index:0 () in
  let r1 = Swmr.reader ~net ~client_id:201 ~base_inst:0 ~reader_index:1 () in
  let a = ref None and b = ref None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          ignore (Swmr.write w (int_value 11));
          a := Outcome.to_option (Swmr.read r0);
          b := Outcome.to_option (Swmr.read r1) );
    ];
  Alcotest.(check (option value)) "r0" (Some (int_value 11)) !a;
  Alcotest.(check (option value)) "r1" (Some (int_value 11)) !b

let test_mwmr_sync () =
  let scn = sync_scenario ~seed:6 ~n:4 ~f:1 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    Byzantine.Behavior.garbage;
  let cfg = Mwmr.default_config ~m:2 in
  let p0 = Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:0 ~client_id:300 in
  let p1 = Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:1 ~client_id:301 in
  let got = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          ignore (Mwmr.write p0 (int_value 1));
          ignore (Mwmr.write p1 (int_value 2));
          got := Outcome.to_option (Mwmr.read p0) );
    ];
  Alcotest.(check (option value)) "latest over sync links" (Some (int_value 2))
    !got

let test_kv_sync () =
  let scn = sync_scenario ~seed:7 ~n:7 ~f:2 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 2
    Byzantine.Behavior.equivocate;
  let cfg = Kv.Store.config ~keys:[ "x"; "y" ] ~clients:2 in
  let s0 = Kv.Store.client ~net:scn.Harness.Scenario.net ~cfg ~id:0 ~client_id:400 in
  let s1 = Kv.Store.client ~net:scn.Harness.Scenario.net ~cfg ~id:1 ~client_id:401 in
  let got = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          ignore (Kv.Store.set_o s0 ~key:"x" (int_value 5));
          got := Outcome.to_option (Kv.Store.get_o s1 ~key:"x") );
    ];
  Alcotest.(check (option value)) "kv over sync links" (Some (int_value 5)) !got

let test_swmr_wb_sync_inversion_free () =
  let scn = sync_scenario ~seed:8 ~n:4 ~f:1 () in
  let net = scn.Harness.Scenario.net in
  let w = Swmr_wb.writer ~net ~client_id:100 ~base_inst:0 ~readers:2 () in
  let r0 = Swmr_wb.reader ~net ~client_id:200 ~base_inst:0 ~reader_index:0 () in
  let r1 = Swmr_wb.reader ~net ~client_id:201 ~base_inst:0 ~reader_index:1 () in
  let a = ref None and b = ref None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          ignore (Swmr_wb.write w (int_value 3));
          a := Outcome.to_option (Swmr_wb.read r0);
          b := Outcome.to_option (Swmr_wb.read r1) );
    ];
  Alcotest.(check (option value)) "r0" (Some (int_value 3)) !a;
  Alcotest.(check (option value)) "r1" (Some (int_value 3)) !b

(* --- many instances multiplexed over the same servers --- *)

let test_many_instances_isolated () =
  let scn = async_scenario ~seed:9 () in
  let net = scn.Harness.Scenario.net in
  let instances = 40 in
  let pairs =
    Array.init instances (fun i ->
        ( Swsr_atomic.writer ~net ~client_id:100 ~inst:i (),
          Swsr_atomic.reader ~net ~client_id:101 ~inst:i () ))
  in
  let results = Array.make instances None in
  run_fibers scn
    [
      ( "all",
        fun () ->
          (* Interleave writes across all instances, then read each. *)
          Array.iteri
            (fun i (w, _) ->
                ignore (Swsr_atomic.write w (int_value (1000 + i))))
            pairs;
          Array.iteri
            (fun i (_, r) ->
                results.(i) <- Outcome.to_option (Swsr_atomic.read r))
            pairs );
    ];
  Array.iteri
    (fun i v ->
      Alcotest.(check (option value))
        (Printf.sprintf "instance %d isolated" i)
        (Some (int_value (1000 + i)))
        v)
    results

let test_concurrent_instances_under_byzantine () =
  let scn = async_scenario ~seed:10 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 8
    Byzantine.Behavior.garbage;
  let net = scn.Harness.Scenario.net in
  let mk i =
    ( i,
      Swsr_atomic.writer ~net ~client_id:(100 + (2 * i)) ~inst:i (),
      Swsr_atomic.reader ~net ~client_id:(101 + (2 * i)) ~inst:i () )
  in
  let regs = List.init 6 mk in
  let jobs =
    List.concat_map
      (fun (i, w, r) ->
        [
          ( Printf.sprintf "w%d" i,
            fun () ->
              Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ())
                ~proc:(Printf.sprintf "w%d" i)
                ~writer_id:i ~write:(Swsr_atomic.write w) ~count:8
                ~gap:(Harness.Workload.gap 0 15) () );
          ( Printf.sprintf "r%d" i,
            fun () ->
              for _ = 1 to 8 do
                (match Outcome.to_option (Swsr_atomic.read r) with
                | Some _ -> ()
                | None -> Alcotest.fail "read failed");
                Harness.Scenario.sleep scn 10
              done );
        ])
      regs
  in
  run_fibers scn jobs;
  (* 6 independent writers * 8 writes, all recorded in one shared history
     through writer_job; values are namespaced per writer, so regularity
     cannot be checked on the merged stream — liveness was the point. *)
  check_int "all writes completed" 48
    (List.length (Oracles.History.writes scn.Harness.Scenario.history))

(* --- compositions over the Stabilizing (lossy) medium --- *)

let lossy = Net.Stabilizing { loss = 0.2; dup = 0.1 }

let test_mwmr_over_lossy () =
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:41 ~medium:lossy ~params () in
  let cfg = Mwmr.default_config ~m:2 in
  let p0 = Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:0 ~client_id:300 in
  let p1 = Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:1 ~client_id:301 in
  let got = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          ignore (Mwmr.write p0 (int_value 1));
          ignore (Mwmr.write p1 (int_value 2));
          got := Outcome.to_option (Mwmr.read p0) );
    ];
  Alcotest.(check (option value)) "mwmr over lossy links" (Some (int_value 2))
    !got

let test_kv_over_lossy () =
  let params = Params.create_exn ~n:9 ~f:1 ~mode:Params.Async () in
  let scn = Harness.Scenario.create ~seed:42 ~medium:lossy ~params () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 0
    Byzantine.Behavior.garbage;
  let cfg = Kv.Store.config ~keys:[ "k" ] ~clients:2 in
  let s0 = Kv.Store.client ~net:scn.Harness.Scenario.net ~cfg ~id:0 ~client_id:400 in
  let s1 = Kv.Store.client ~net:scn.Harness.Scenario.net ~cfg ~id:1 ~client_id:401 in
  let got = ref None in
  run_fibers scn
    [
      ( "seq",
        fun () ->
          ignore (Kv.Store.set_o s0 ~key:"k" (int_value 7));
          got := Outcome.to_option (Kv.Store.get_o s1 ~key:"k") );
    ];
  Alcotest.(check (option value)) "kv over lossy links" (Some (int_value 7))
    !got

let tests =
  [
    case "SWMR over sync links" test_swmr_sync;
    case "MWMR over sync links" test_mwmr_sync;
    case "KV over sync links" test_kv_sync;
    case "SWMR write-back over sync links" test_swmr_wb_sync_inversion_free;
    case "40 instances isolated" test_many_instances_isolated;
    case "6 concurrent registers + byzantine" test_concurrent_instances_under_byzantine;
    case "MWMR over lossy links" test_mwmr_over_lossy;
    case "KV over lossy links" test_kv_over_lossy;
  ]
