open Util
open Registers

let setup ?(seed = 7) ?(n = 9) ?(f = 1) ?modulus () =
  let scn = async_scenario ~seed ~n ~f () in
  let w =
    Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0
      ?modulus ()
  in
  let r =
    Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0
      ?modulus ()
  in
  (scn, w, r)

let concurrent_workload ?(writes = 30) ?(reads = 30) ?(gap_hi = 20) scn w r =
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~write:(Swsr_atomic.write w)
            ~count:writes ~gap:(Harness.Workload.gap 0 gap_hi) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn
            ~read:(fun () -> Swsr_atomic.read r)
            ~count:reads ~gap:(Harness.Workload.gap 0 gap_hi) () );
    ]

let check_atomic ?cutoff scn =
  let h = scn.Harness.Scenario.history in
  let cutoff =
    match (cutoff, Oracles.Stabilization.cutoff_from h ~lo:0) with
    | Some c, _ | None, Some c -> c
    | None, None -> Alcotest.fail "no writes recorded"
  in
  let report = Oracles.Atomicity.Sw.check ~cutoff h in
  if not (Oracles.Atomicity.Sw.is_clean report) then
    Alcotest.failf "%a" Oracles.Atomicity.Sw.pp report

let test_write_then_read () =
  let scn, w, r = setup () in
  let got = ref None in
  run_fiber scn "wr" (fun () ->
      ignore (Swsr_atomic.write w (int_value 42));
      got := Outcome.to_option (Swsr_atomic.read r));
  Alcotest.(check (option value)) "read back" (Some (int_value 42)) !got;
  check_int "wsn advanced" 1 (Swsr_atomic.wsn w);
  check_int "pwsn tracked" 1 (Swsr_atomic.pwsn r)

let test_atomic_under_concurrency () =
  let scn, w, r = setup () in
  concurrent_workload scn w r;
  check_atomic scn

let test_atomic_across_seeds () =
  for seed = 1 to 25 do
    let scn, w, r = setup ~seed () in
    concurrent_workload ~writes:15 ~reads:15 ~gap_hi:8 scn w r;
    check_atomic scn
  done

let test_atomic_with_byzantine_mix () =
  let scn, w, r = setup ~n:17 ~f:2 ~seed:3 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 4
    Byzantine.Behavior.garbage;
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 11
    Byzantine.Behavior.equivocate;
  concurrent_workload scn w r;
  check_atomic scn

(* The headline Figure-1 comparison, on the deterministically constructed
   schedule: the regular register inverts, the atomic one does not. *)
let test_new_old_inversion_eliminated () =
  let regular = Harness.Fig1.run `Regular in
  check_true "write(1) really spans both reads"
    regular.Harness.Fig1.write1_pending_during_reads;
  Alcotest.(check (option value)) "regular read1 sees the new value"
    (Some (int_value 1)) regular.Harness.Fig1.read1;
  Alcotest.(check (option value)) "regular read2 regresses to the old value"
    (Some (int_value 0)) regular.Harness.Fig1.read2;
  check_true "regular register inverted" regular.Harness.Fig1.inversion;
  let atomic = Harness.Fig1.run `Atomic in
  check_true "same schedule, write pending"
    atomic.Harness.Fig1.write1_pending_during_reads;
  Alcotest.(check (option value)) "atomic read1" (Some (int_value 1))
    atomic.Harness.Fig1.read1;
  Alcotest.(check (option value)) "atomic read2 holds the line"
    (Some (int_value 1)) atomic.Harness.Fig1.read2;
  check_false "no inversion" atomic.Harness.Fig1.inversion

(* --- bounded sequence numbers / wrap-around (§4) --- *)

let test_wraparound_small_modulus () =
  let scn, w, r = setup ~modulus:11 () in
  (* Far more writes than the modulus: the counter wraps several times but
     reads interleave closely, so >_cd keeps them ordered. *)
  let got = ref [] in
  run_fibers scn
    [
      ( "wr",
        fun () ->
          for i = 1 to 50 do
            ignore (Swsr_atomic.write w (int_value i));
            got := Outcome.to_option (Swsr_atomic.read r) :: !got
          done );
    ];
  List.iteri
    (fun i v ->
      Alcotest.(check (option value))
        (Printf.sprintf "read %d" i)
        (Some (int_value (50 - i)))
        v)
    !got;
  check_true "counter stayed in range" (Swsr_atomic.wsn w < 11)

let test_reader_corruption_recovers () =
  (* Corrupt the reader's (pwsn, pv) after a write; with a small modulus,
     reads must become permanently correct within one full counter wrap of
     further writes. *)
  let scn, w, r = setup ~modulus:11 ~seed:21 () in
  let tail_reads = ref [] in
  run_fibers scn
    [
      ( "job",
        fun () ->
          ignore (Swsr_atomic.write w (int_value 1));
          Swsr_atomic.corrupt_reader r (Harness.Scenario.split_rng scn);
          for i = 2 to 14 do
            ignore (Swsr_atomic.write w (int_value i));
            let v = Outcome.to_option (Swsr_atomic.read r) in
            if i > 12 then tail_reads := (i, v) :: !tail_reads
          done );
    ];
  List.iter
    (fun (i, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "post-wrap read %d" i)
        (Some (int_value i))
        v)
    !tail_reads

let test_writer_corruption_recovers () =
  let scn, w, r = setup ~modulus:11 ~seed:22 () in
  let tail_reads = ref [] in
  run_fibers scn
    [
      ( "job",
        fun () ->
          for i = 1 to 5 do
            ignore (Swsr_atomic.write w (int_value i))
          done;
          Swsr_atomic.corrupt_writer w (Harness.Scenario.split_rng scn);
          for i = 6 to 20 do
            ignore (Swsr_atomic.write w (int_value i));
            let v = Outcome.to_option (Swsr_atomic.read r) in
            if i > 17 then tail_reads := (i, v) :: !tail_reads
          done );
    ];
  List.iter
    (fun (i, v) ->
      Alcotest.(check (option value))
        (Printf.sprintf "post-wrap read %d" i)
        (Some (int_value i))
        v)
    !tail_reads

let test_full_transient_fault_stabilizes () =
  (* Corrupt servers AND client persistent state AND link contents at
     t=300; with a small modulus the register is practically stabilizing:
     after at most one counter wrap of post-fault writes, reads are atomic. *)
  let scn, w, r = setup ~modulus:11 ~seed:23 () in
  Harness.Scenario.register_port scn (Swsr_atomic.writer_port w);
  Harness.Scenario.register_port scn (Swsr_atomic.reader_port r);
  Harness.Scenario.register_atomic_writer scn ~name:"w" w;
  Harness.Scenario.register_atomic_reader scn ~name:"r" r;
  Sim.Fault.schedule scn.Harness.Scenario.fault
    ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int 300) ~prefix:"";
  concurrent_workload ~writes:60 ~reads:60 ~gap_hi:10 scn w r;
  (* Writes after the fault, in order; stabilization is guaranteed at most
     a full wrap (11 writes) past the fault. *)
  let post_fault_writes =
    Oracles.History.writes scn.Harness.Scenario.history
    |> List.filter (fun (o : Oracles.History.op) ->
           Sim.Vtime.to_int o.Oracles.History.inv >= 300)
  in
  check_true "enough post-fault writes" (List.length post_fault_writes > 14);
  let cutoff = (List.nth post_fault_writes 12).Oracles.History.resp in
  check_atomic ~cutoff scn

let test_inversion_preventions_counted () =
  let scn, w, r = setup ~seed:2 () in
  concurrent_workload ~writes:40 ~reads:40 ~gap_hi:3 scn w r;
  (* The counter is allowed to be zero, but must be consistent with the
     reader having done at least as many loop iterations as reads. *)
  check_true "iterations >= reads" (Swsr_atomic.reader_iterations r >= 40);
  check_true "preventions non-negative" (Swsr_atomic.inversion_preventions r >= 0)

let test_sanity_phase_repairs_worst_case_corruption () =
  (* The lines N2-N7 ablation (experiment E12): with the sanity phase a
     worst-case corrupted (pwsn, pv) is repaired immediately; without it
     the stale value sticks until the bounded counter wraps past it. *)
  let run ~sanity_check =
    let modulus = 101 in
    let scn = async_scenario ~seed:4 () in
    let net = scn.Harness.Scenario.net in
    let w = Swsr_atomic.writer ~net ~client_id:100 ~inst:0 ~modulus () in
    let r =
      Swsr_atomic.reader ~net ~client_id:101 ~inst:0 ~modulus ~sanity_check ()
    in
    let stale = ref 0 in
    run_fibers scn
      [
        ( "wr",
          fun () ->
            for i = 1 to 5 do
              ignore (Swsr_atomic.write w (int_value i))
            done;
            Swsr_atomic.corrupt_reader_to r ~pwsn:30 ~pv:(Value.str "stale");
            for i = 6 to 40 do
              ignore (Swsr_atomic.write w (int_value i));
              match Outcome.to_option (Swsr_atomic.read r) with
              | Some v when Value.equal v (int_value i) -> ()
              | Some _ | None -> incr stale
            done );
      ];
    !stale
  in
  check_int "sanity phase repairs instantly" 0 (run ~sanity_check:true);
  check_true "ablated reader sticks on the stale value until the wrap"
    (run ~sanity_check:false > 15)

let tests =
  [
    case "write then read" test_write_then_read;
    case "atomic under concurrency" test_atomic_under_concurrency;
    case "atomic across seeds" test_atomic_across_seeds;
    case "atomic with byzantine mix" test_atomic_with_byzantine_mix;
    case "new/old inversion eliminated (Fig 1)" test_new_old_inversion_eliminated;
    case "wrap-around, modulus 11" test_wraparound_small_modulus;
    case "reader corruption recovers" test_reader_corruption_recovers;
    case "writer corruption recovers" test_writer_corruption_recovers;
    case "full transient fault stabilizes (Thm 3)" test_full_transient_fault_stabilizes;
    case "prevention counter sane" test_inversion_preventions_counted;
    case "sanity phase vs worst-case corruption (E12)"
      test_sanity_phase_repairs_worst_case_corruption;
  ]
