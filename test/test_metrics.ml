open Util
open Harness

let test_summary_basic () =
  let s = Obs.Metrics.summary [ 1.0; 2.0; 3.0; 4.0 ] in
  check_int "count" 4 s.Obs.Metrics.count;
  Alcotest.(check (float 0.001)) "mean" 2.5 s.Obs.Metrics.mean;
  Alcotest.(check (float 0.001)) "min" 1.0 s.Obs.Metrics.min;
  Alcotest.(check (float 0.001)) "p50" 2.0 s.Obs.Metrics.p50;
  Alcotest.(check (float 0.001)) "p99" 4.0 s.Obs.Metrics.p99;
  Alcotest.(check (float 0.001)) "max" 4.0 s.Obs.Metrics.max

let test_summary_singleton () =
  let s = Obs.Metrics.summary [ 7.0 ] in
  Alcotest.(check (float 0.001)) "all stats" 7.0 s.Obs.Metrics.p95

let test_summary_empty_rejected () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Metrics.summary: empty sample")
    (fun () -> ignore (Obs.Metrics.summary []))

let test_percentiles_unordered_input () =
  let s = Obs.Metrics.summary [ 9.0; 1.0; 5.0; 3.0; 7.0 ] in
  Alcotest.(check (float 0.001)) "min" 1.0 s.Obs.Metrics.min;
  Alcotest.(check (float 0.001)) "median" 5.0 s.Obs.Metrics.p50;
  Alcotest.(check (float 0.001)) "p95 ~ max" 9.0 s.Obs.Metrics.p95;
  Alcotest.(check (float 0.001)) "p99 ~ max" 9.0 s.Obs.Metrics.p99

let test_summary_skewed () =
  (* A heavy tail: p50 stays low while p99 picks up the outlier. *)
  let xs = List.init 98 (fun _ -> 1.0) @ [ 1000.0; 1000.0 ] in
  let s = Obs.Metrics.summary xs in
  Alcotest.(check (float 0.001)) "p50 low" 1.0 s.Obs.Metrics.p50;
  Alcotest.(check (float 0.001)) "p99 tail" 1000.0 s.Obs.Metrics.p99;
  Alcotest.(check (float 0.001)) "min floor" 1.0 s.Obs.Metrics.min

let mk_history () =
  let h = Oracles.History.create () in
  let t = Sim.Vtime.of_int in
  Oracles.History.record h ~proc:"w" ~kind:Oracles.History.Write ~inv:(t 0)
    ~resp:(t 10) (int_value 1);
  Oracles.History.record h ~proc:"r" ~kind:Oracles.History.Read ~inv:(t 20)
    ~resp:(t 25) (int_value 1);
  Oracles.History.record h ~proc:"r" ~kind:Oracles.History.Read ~inv:(t 30)
    ~resp:(t 45) ~ok:false Registers.Value.bot;
  h

let test_latencies () =
  let h = mk_history () in
  check_true "write latency" (Metrics.latencies ~kind:Oracles.History.Write h = [ 10.0 ]);
  check_true "only ok reads" (Metrics.latencies ~kind:Oracles.History.Read h = [ 5.0 ])

let test_read_counts () =
  let h = mk_history () in
  check_int "ok reads" 1 (Metrics.ok_reads h);
  check_int "failed reads" 1 (Metrics.failed_reads h)

let tests =
  [
    case "summary basic" test_summary_basic;
    case "summary singleton" test_summary_singleton;
    case "summary empty" test_summary_empty_rejected;
    case "percentiles" test_percentiles_unordered_input;
    case "summary skewed tail" test_summary_skewed;
    case "latencies" test_latencies;
    case "read counts" test_read_counts;
  ]
