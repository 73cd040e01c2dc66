(* Soak tests: long runs that catch state accumulation, counter drift and
   rare-interleaving bugs that short unit tests miss. *)

open Util
open Registers

let test_swsr_long_run_with_repeated_faults () =
  let scn = async_scenario ~seed:31 ~n:17 ~f:2 () in
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 3
    Byzantine.Behavior.garbage;
  Byzantine.Adversary.compromise scn.Harness.Scenario.adversary 9
    Byzantine.Behavior.equivocate;
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
  (* Server-state faults at three instants along the run. *)
  List.iter
    (fun at ->
      Sim.Fault.schedule scn.Harness.Scenario.fault
        ~engine:scn.Harness.Scenario.engine ~at:(Sim.Vtime.of_int at)
        ~prefix:"server.")
    [ 5_000; 15_000; 25_000 ];
  let writes = 1500 and reads = 1200 in
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~write:(Swsr_atomic.write w)
            ~count:writes ~gap:(Harness.Workload.gap 0 20) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn
            ~read:(fun () -> Swsr_atomic.read r)
            ~count:reads ~gap:(Harness.Workload.gap 0 25) () );
    ];
  let h = scn.Harness.Scenario.history in
  check_int "all writes done" writes (List.length (Oracles.History.writes h));
  check_int "all reads done" reads (Harness.Metrics.ok_reads h);
  (* After the last fault's first subsequent write, everything is atomic. *)
  let cutoff =
    match Oracles.Stabilization.cutoff_from h ~lo:25_000 with
    | Some c -> c
    | None -> Alcotest.fail "no write after the last fault"
  in
  let report = Oracles.Atomicity.Sw.check ~cutoff h in
  if not (Oracles.Atomicity.Sw.is_clean report) then
    Alcotest.failf "%a" Oracles.Atomicity.Sw.pp report;
  (* No residue: the reader's mailbox must not have grown without bound. *)
  check_true "reader mailbox bounded"
    (Sim.Mailbox.length (Swsr_atomic.reader_port r).Net.mailbox < 64)

let test_wraparound_soak () =
  (* Thousands of writes through a 31-value counter: dozens of full wraps,
     reads stay exact throughout. *)
  let scn = async_scenario ~seed:32 () in
  let w = Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 ~modulus:31 () in
  let r = Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 ~modulus:31 () in
  let bad = ref 0 in
  run_fibers scn
    [
      ( "wr",
        fun () ->
          for i = 1 to 2000 do
            ignore (Swsr_atomic.write w (int_value i));
            match Outcome.to_option (Swsr_atomic.read r) with
            | Some v when Value.equal v (int_value i) -> ()
            | Some _ | None -> incr bad
          done );
    ];
  check_int "every read exact through ~65 wraps" 0 !bad

let test_transport_soak_with_corruptions () =
  let rng = Sim.Rng.create 33 in
  let engine = Sim.Engine.create ~rng () in
  let received = ref 0 and last = ref 0 and reordered = ref 0 in
  let tr =
    Ss_transport.create ~engine ~rng:(Sim.Rng.split rng)
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10)
      ~loss:0.3 ~dup:0.2 ~retrans:25 ~name:"soak"
      ~deliver:(fun m ->
        incr received;
        if m < !last then incr reordered;
        last := max !last m)
      ()
  in
  let corrupt_rng = Sim.Rng.create 99 in
  for batch = 0 to 4 do
    for i = 1 to 400 do
      Ss_transport.send tr ((batch * 400) + i)
    done;
    Sim.Engine.run engine;
    (* transient fault between batches *)
    if batch < 4 then Ss_transport.corrupt tr corrupt_rng
  done;
  Sim.Engine.run engine;
  (* Bounded anomalies per corruption; overwhelmingly exactly-once. *)
  check_true "nearly all delivered"
    (!received >= 2000 - (4 * 3) && !received <= 2000 + (4 * 3));
  check_true "bounded reordering" (!reordered <= 4 * 3)

let test_mwmr_soak () =
  let scn = async_scenario ~seed:34 () in
  let m = 4 in
  let cfg = Mwmr.default_config ~m in
  let procs =
    Array.init m (fun i ->
        Mwmr.process ~net:scn.Harness.Scenario.net ~cfg ~id:i
          ~client_id:(300 + i))
  in
  run_fibers scn
    (Array.to_list
       (Array.mapi
          (fun i p ->
            ( Printf.sprintf "p%d" i,
              fun () ->
                Harness.Workload.mwmr_job scn
                  ~proc:(Printf.sprintf "p%d" i)
                  ~process:p ~ops:60 ~write_ratio:0.4
                  ~gap:(Harness.Workload.gap 0 30) () ))
          procs));
  let report =
    Oracles.Atomicity.Mw.check ~tie:cfg.Mwmr.tie scn.Harness.Scenario.history
  in
  if not (Oracles.Atomicity.Mw.is_clean report) then
    Alcotest.failf "%a" Oracles.Atomicity.Mw.pp report;
  check_int "no epochs needed at the practical bound" 0
    (Array.fold_left (fun a p -> a + Mwmr.epochs_opened p) 0 procs)

let test_engine_volume () =
  (* Raw engine throughput sanity: a million events, timers nested. *)
  let engine = Sim.Engine.create ~rng:(Sim.Rng.create 35) () in
  let count = ref 0 in
  let rec tick n =
    if n > 0 then
      Sim.Engine.schedule engine ~delay:1 (fun () ->
          incr count;
          tick (n - 1))
  in
  for _ = 1 to 100 do
    tick 10_000
  done;
  Sim.Engine.run engine;
  check_int "all events fired" 1_000_000 !count

let tests =
  [
    case "SWSR long run, repeated faults" test_swsr_long_run_with_repeated_faults;
    case "2000 writes through a 31-modulus counter" test_wraparound_soak;
    case "transport soak with corruptions" test_transport_soak_with_corruptions;
    case "MWMR soak" test_mwmr_soak;
    case "engine: 1M events" test_engine_volume;
  ]
