open Util
open Oracles

let t i = Sim.Vtime.of_int i

let w h inv resp v =
  History.record h ~proc:"writer" ~kind:History.Write ~inv:(t inv)
    ~resp:(t resp) (int_value v)

let r h ?(proc = "reader") inv resp v =
  History.record h ~proc ~kind:History.Read ~inv:(t inv) ~resp:(t resp)
    (int_value v)

let linearizable h =
  match Linearize.check h with
  | Some b -> b
  | None -> Alcotest.fail "linearizer ran out of budget"

let test_sequential_clean () =
  let h = History.create () in
  w h 0 10 1;
  r h 20 30 1;
  w h 40 50 2;
  r h 60 70 2;
  check_true "linearizable" (linearizable h)

let test_stale_read_rejected () =
  let h = History.create () in
  w h 0 10 1;
  w h 20 30 2;
  r h 40 50 1;
  check_false "stale read not linearizable" (linearizable h)

let test_concurrent_read_either_value () =
  let h = History.create () in
  w h 0 10 1;
  w h 20 60 2;
  (* overlaps the second write: may return either *)
  r h 30 40 1;
  check_true "old value fine while write pending" (linearizable h);
  let h2 = History.create () in
  w h2 0 10 1;
  w h2 20 60 2;
  r h2 30 40 2;
  check_true "new value fine too" (linearizable h2)

let test_new_old_inversion_rejected () =
  let h = History.create () in
  w h 0 10 1;
  w h 20 100 2;
  r h 30 40 2;
  r h 50 60 1;
  check_false "inversion not linearizable" (linearizable h)

let test_initial_value () =
  let h = History.create () in
  r h 0 5 99;
  check_false "phantom initial read" (linearizable h);
  let h2 = History.create () in
  History.record h2 ~proc:"r" ~kind:History.Read ~inv:(t 0) ~resp:(t 5)
    Registers.Value.bot;
  check_true "Bot before any write" (linearizable h2)

let test_multi_writer_tie () =
  (* Two overlapping writes; two sequential reads seeing them in one order
     — fine; in both orders — impossible. *)
  let h = History.create () in
  History.record h ~proc:"w1" ~kind:History.Write ~inv:(t 0) ~resp:(t 50)
    (int_value 1);
  History.record h ~proc:"w2" ~kind:History.Write ~inv:(t 0) ~resp:(t 50)
    (int_value 2);
  r h 60 70 1;
  check_true "either overlapping write may win" (linearizable h);
  let h2 = History.create () in
  History.record h2 ~proc:"w1" ~kind:History.Write ~inv:(t 0) ~resp:(t 50)
    (int_value 1);
  History.record h2 ~proc:"w2" ~kind:History.Write ~inv:(t 0) ~resp:(t 50)
    (int_value 2);
  r h2 60 70 1;
  r h2 80 90 2;
  check_false "cannot read the loser afterwards" (linearizable h2)

(* Cross-validation: on real simulator histories, the polynomial Sw oracle
   and the brute-force linearizer must agree. *)
let test_cross_validates_sw_oracle () =
  for seed = 1 to 12 do
    let scn = async_scenario ~seed () in
    let wtr = Registers.Swsr_atomic.writer ~net:scn.Harness.Scenario.net ~client_id:100 ~inst:0 () in
    let rdr = Registers.Swsr_atomic.reader ~net:scn.Harness.Scenario.net ~client_id:101 ~inst:0 () in
    run_fibers scn
      [
        ( "writer",
          fun () ->
            Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ())
              ~write:(Registers.Swsr_atomic.write wtr) ~count:6
              ~gap:(Harness.Workload.gap 0 15) () );
        ( "reader",
          fun () ->
            Harness.Workload.reader_job scn ~tally:(Harness.Workload.tally ())
              ~read:(fun () -> Registers.Swsr_atomic.read rdr)
              ~count:6 ~gap:(Harness.Workload.gap 0 15) () );
      ];
    let h = scn.Harness.Scenario.history in
    let sw_clean = Atomicity.Sw.is_clean (Atomicity.Sw.check h) in
    match Linearize.check h with
    | Some lin -> check_bool (Printf.sprintf "seed %d oracles agree" seed) sw_clean lin
    | None -> Alcotest.fail "budget exhausted on a 12-op history"
  done

(* And on the Fig. 1 histories: the regular register's is NOT linearizable,
   the atomic one's is. *)
let test_fig1_histories () =
  let build kind =
    let o = Harness.Fig1.run kind in
    let h = History.create () in
    w h 0 5 0;
    (* write(1) spans both reads *)
    History.record h ~proc:"writer" ~kind:History.Write ~inv:(t 6)
      ~resp:(t 1000) (int_value 1);
    (match o.Harness.Fig1.read1 with
    | Some v ->
      History.record h ~proc:"reader" ~kind:History.Read ~inv:(t 10)
        ~resp:(t 20) v
    | None -> ());
    (match o.Harness.Fig1.read2 with
    | Some v ->
      History.record h ~proc:"reader" ~kind:History.Read ~inv:(t 30)
        ~resp:(t 40) v
    | None -> ());
    linearizable h
  in
  check_false "regular register's Fig 1 history not linearizable"
    (build `Regular);
  check_true "atomic register's is" (build `Atomic)

let tests =
  [
    case "sequential clean" test_sequential_clean;
    case "stale read rejected" test_stale_read_rejected;
    case "concurrent read both ways" test_concurrent_read_either_value;
    case "new/old inversion rejected" test_new_old_inversion_rejected;
    case "initial value" test_initial_value;
    case "multi-writer ties" test_multi_writer_tie;
    case "cross-validates the Sw oracle" test_cross_validates_sw_oracle;
    case "Fig 1 histories" test_fig1_histories;
  ]
