open Perfbench

let floats l = Array.of_list (List.map float_of_int l)

let range n = floats (List.init n (fun i -> i + 1))

let close = Alcotest.float 1e-12

(* --- percentile rule ----------------------------------------------------- *)

let test_percentile_needs_ten_beyond () =
  Alcotest.(check (option (float 0.0))) "p99 of 1000" (Some 990.0)
    (Stats.percentile (range 1000) 0.99);
  Alcotest.(check (option (float 0.0))) "p99 of 999" None
    (Stats.percentile (range 999) 0.99);
  Alcotest.(check (option (float 0.0))) "p50 of 20" (Some 10.0)
    (Stats.percentile (range 20) 0.5);
  Alcotest.(check (option (float 0.0))) "p50 of 19" None
    (Stats.percentile (range 19) 0.5);
  Alcotest.(check (option (float 0.0))) "p99.9 of 10000" (Some 9990.0)
    (Stats.percentile (range 10000) 0.999);
  Alcotest.(check bool) "p90 of 99" false (Stats.supported 99 0.9);
  Alcotest.(check bool) "p90 of 100" true (Stats.supported 100 0.9)

let test_quartiles_match_python () =
  let check name xs (q1, q3) =
    let a, b = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") q1 a;
    Alcotest.check close (name ^ " q3") q3 b
  in
  check "1..10" (range 10) (2.75, 8.25);
  check "two" (range 2) (0.75, 2.25);
  check "unsorted" [| 3.0; 1.0; 4.0; 1.5; 5.0; 9.0; 2.6 |] (1.5, 5.0);
  Alcotest.check close "spread 1..10" 1.0 (Stats.spread (range 10));
  Alcotest.check close "spread of one sample" 0.0 (Stats.spread [| 4.0 |])

(* --- reference ------------------------------------------------------------ *)

(* Scaled timings of two commits compare only while the reference does
   the same work; this pins it. *)
let test_reference_fixed () =
  Alcotest.(check int) "Reference.work" (-3020239961973661130) (Reference.work ());
  Alcotest.check close "twice as slow halves the scale" 0.5
    (Reference.scale ~reference_s:(2.0 *. Reference.nominal_s))

(* --- compare and bounds -------------------------------------------------- *)

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (Compare.verdict_to_string v))
    ( = )

let test_judge () =
  let base = [| 100.0; 101.0; 99.0; 100.0; 100.5 |] in
  let judge ?(better = Benchmark.Higher) bound next =
    Compare.judge ~better ~bound ~base ~next
  in
  Alcotest.check verdict "within bound" Compare.Same
    (judge 0.1 [| 95.0; 96.0; 94.0; 95.0; 95.5 |]);
  Alcotest.check verdict "throughput fell" Compare.Worse
    (judge 0.1 [| 85.0; 86.0; 84.0; 85.0; 85.5 |]);
  Alcotest.check verdict "throughput rose" Compare.Better
    (judge 0.1 [| 115.0; 116.0; 114.0; 115.0; 115.5 |]);
  Alcotest.check verdict "a time that rose is worse" Compare.Worse
    (judge ~better:Benchmark.Lower 0.1 [| 115.0; 116.0; 114.0; 115.0; 115.5 |]);
  Alcotest.check verdict "spread wider than the bound" Compare.Unresolved
    (judge 0.1 [| 60.0; 140.0; 80.0; 120.0; 85.0 |]);
  Alcotest.check verdict "wide spread, every run better" Compare.Better
    (judge 0.1 [| 200.0; 300.0; 250.0; 400.0 |]);
  Alcotest.check verdict "single runs compare by median" Compare.Worse
    (Compare.judge ~better:Benchmark.Higher ~bound:0.1 ~base:[| 100.0 |]
       ~next:[| 80.0 |])

let test_judge_exact () =
  let judge = Compare.judge_exact ~better:Benchmark.Lower in
  Alcotest.check verdict "unchanged" Compare.Same (judge [ (3.0, 3.0); (5.0, 5.0) ]);
  Alcotest.check verdict "one seed rose" Compare.Worse
    (judge [ (3.0, 2.0); (5.0, 5.0 +. 1e-9) ]);
  Alcotest.check verdict "one seed fell" Compare.Better (judge [ (3.0, 2.0); (5.0, 5.0) ])

(* A results file; each run is (workload, seed, trace, failed, metrics)
   with 100 units attempted. *)
let results runs =
  Compare.results_file
    (List.map
       (fun (workload, seed, trace, failed, metrics) ->
         Compare.run_record ~workload ~seed ~seconds:1.0 ~trace
           (Obs.Json.Obj
              [
                ("attempted", Obs.Json.Int 100);
                ("failed", Obs.Json.Int failed);
                ( "metrics",
                  Obs.Json.Obj
                    (List.map
                       (fun (name, v) ->
                         (name, Obs.Json.Obj [ ("value", Obs.Json.Float v) ]))
                       metrics) );
              ]))
       runs)

let runs j =
  match Compare.runs_of_results j with Ok s -> s | Error e -> Alcotest.fail e

let metric ?bound name better = { Benchmark.name; unit = "u"; better; bound }

let test_rows_from_results_files () =
  let bench =
    {
      Benchmark.workloads = [ "kv-closed"; "mc-n4-silent" ];
      end_to_end = [ metric ~bound:0.1 "ops_per_s" Benchmark.Higher ];
      per_layer =
        [
          metric "registers.msgs_per_op" Benchmark.Lower;
          metric "mc.unique_states" Benchmark.Lower;
          metric "sim.ns_per_event" Benchmark.Lower;
        ];
    }
  in
  let base =
    runs
      (results
         [
           ("kv-closed", 1, false, 0, [ ("ops_per_s", 100.0) ]);
           ("kv-closed", 2, false, 0, [ ("ops_per_s", 102.0) ]);
           ( "kv-closed", 1, true, 0,
             [ ("registers.msgs_per_op", 150.0); ("mc.unique_states", 0.0);
               ("sim.ns_per_event", 80.0) ] );
           ("mc-n4-silent", 1, false, 0, [ ("ops_per_s", 1.0) ]);
           ("mc-n4-silent", 1, true, 0, [ ("mc.unique_states", 500.0) ]);
         ])
  in
  let next =
    runs
      (results
         [
           ("kv-closed", 1, false, 0, [ ("ops_per_s", 80.0) ]);
           ("kv-closed", 2, false, 0, [ ("ops_per_s", 81.0) ]);
           ( "kv-closed", 1, true, 0,
             [ ("registers.msgs_per_op", 149.0); ("mc.unique_states", 0.0);
               ("sim.ns_per_event", 99.0) ] );
           ("mc-n4-silent", 1, false, 1, [ ("ops_per_s", 1.01) ]);
           ("mc-n4-silent", 1, true, 0, [ ("mc.unique_states", 501.0) ]);
         ])
  in
  let rows = Compare.rows bench ~base ~next in
  Alcotest.(check (list (triple string string verdict)))
    "bounded medians, then failures and exact metrics seed by seed"
    [
      ("kv-closed", "ops_per_s", Compare.Worse);
      ("kv-closed", "fail_ratio", Compare.Same);
      ("kv-closed", "registers.msgs_per_op", Compare.Better);
      ("mc-n4-silent", "ops_per_s", Compare.Same);
      ("mc-n4-silent", "fail_ratio", Compare.Worse);
      ("mc-n4-silent", "mc.unique_states", Compare.Worse);
    ]
    (List.map (fun (r : Compare.row) -> (r.workload, r.metric, r.verdict)) rows);
  Alcotest.check close "base median" 101.0 (List.hd rows).base_median;
  match Compare.runs_of_results (Obs.Json.Obj [ ("schema", Obs.Json.Str "x") ]) with
  | Ok _ -> Alcotest.fail "accepted a foreign schema"
  | Error _ -> ()

(* --- BENCHMARK.json against the benchmark -------------------------------- *)

let benchmark =
  lazy
    (match Benchmark.load "../../BENCHMARK.json" with
    | Ok b -> b
    | Error e -> Alcotest.fail e)

let names = List.map (fun (m : Benchmark.metric) -> m.name)

let test_workloads_listed () =
  Alcotest.(check (list string)) "workloads"
    (List.map (fun (w : Workloads.t) -> w.name) Workloads.all)
    (Lazy.force benchmark).workloads

let test_bounds () =
  let bench = Lazy.force benchmark in
  let bound (m : Benchmark.metric) = Option.get m.bound in
  List.iter
    (fun (m : Benchmark.metric) ->
      if not (bound m > 0.0 && bound m <= 0.25) then
        Alcotest.failf "%s: bound %g outside (0, 0.25]" m.name (bound m))
    bench.end_to_end;
  let setup = List.find (fun (m : Benchmark.metric) -> m.name = "setup_s") bench.end_to_end in
  Alcotest.(check bool) "setup_s has the largest bound" true
    (List.for_all (fun m -> bound m <= bound setup) bench.end_to_end);
  List.iter
    (fun name ->
      if not (List.mem name (names bench.per_layer)) then
        Alcotest.failf "exact metric %s is not a per-layer metric" name)
    Compare.exact

(* Sizes that run in well under a second; [small_size] is large enough
   for the virtual-time percentiles of kv-closed. *)
let tiny_size = function
  | "shard-zipf" -> 400
  | "kv-closed" -> 5
  | "chaos-lossy" -> 2
  | "mc-n4-silent" -> 1
  | name -> Alcotest.failf "no tiny size for %s" name

let small_size = function "kv-closed" -> 300 | name -> tiny_size name

let emitted (r : Measure.result) =
  List.filter_map (fun ((m : Benchmark.metric), v) -> Option.map (fun _ -> m.name) v) r.metrics

let measure ?size w ~trace =
  let r, _ = Measure.run ?size (Lazy.force benchmark) w ~seed:3 ~seconds:0.0 ~trace in
  if not r.correct then Alcotest.failf "%s: %s" w.name (String.concat "; " r.errors);
  r

(* Every workload emits every end-to-end metric, never 0; together they
   emit every per-layer metric.  Measure.run itself rejects a metric the
   file does not list.  The per-layer run keeps the default size of the
   workloads whose percentiles need it. *)
let test_metrics_emitted () =
  let bench = Lazy.force benchmark in
  List.iter
    (fun (w : Workloads.t) ->
      let r = measure ~size:(tiny_size w.name) w ~trace:false in
      List.iter
        (fun ((m : Benchmark.metric), v) ->
          match v with
          | Some v when v > 0.0 -> ()
          | _ -> Alcotest.failf "%s: %s missing or 0" w.name m.name)
        r.metrics)
    Workloads.all;
  let per_layer =
    List.concat_map
      (fun (w : Workloads.t) ->
        let size =
          match w.name with
          | "kv-closed" | "chaos-lossy" -> None
          | name -> Some (tiny_size name)
        in
        emitted (measure ?size w ~trace:true))
      Workloads.all
  in
  Alcotest.(check (list string)) "per_layer" (names bench.per_layer)
    (List.filter (fun n -> List.mem n per_layer) (names bench.per_layer))

let test_exact_metrics_repeat () =
  List.iter
    (fun (w : Workloads.t) ->
      let exact () =
        let r = measure ~size:(small_size w.name) w ~trace:true in
        ( float_of_int r.failed /. float_of_int r.attempted,
          List.filter (fun ((m : Benchmark.metric), _) -> List.mem m.name Compare.exact) r.metrics
          |> List.map (fun ((m : Benchmark.metric), v) -> (m.name, v)) )
      in
      let first = exact () in
      if exact () <> first then Alcotest.failf "%s: exact metrics differ between runs" w.name)
    Workloads.all

(* --- correctness gate ---------------------------------------------------- *)

let record h ~proc kind ~inv ~resp v =
  Oracles.History.record h ~proc ~kind ~inv:(Sim.Vtime.of_int inv)
    ~resp:(Sim.Vtime.of_int resp) (Registers.Value.int v)

let history ~stale =
  let h = Oracles.History.create () in
  record h ~proc:"c0" Oracles.History.Write ~inv:0 ~resp:10 1;
  record h ~proc:"c1" Oracles.History.Read ~inv:12 ~resp:20 1;
  record h ~proc:"c0" Oracles.History.Write ~inv:30 ~resp:40 2;
  record h ~proc:"c1" Oracles.History.Read ~inv:50 ~resp:60 (if stale then 1 else 2);
  h

let test_stale_read_rejected () =
  let checked, errors = Workloads.Kv_closed.check_histories [| history ~stale:false |] in
  Alcotest.(check int) "reads checked" 2 checked;
  Alcotest.(check (list string)) "clean history passes" [] errors;
  let _, errors =
    Workloads.Kv_closed.check_histories
      [| history ~stale:false; history ~stale:true |]
  in
  Alcotest.(check int) "the stale read is rejected" 1 (List.length errors)

(* The traced kv-closed run drives the engine event by event; it must
   execute exactly what Scenario.run executes. *)
let test_step_matches_run () =
  let go step =
    let d = Workloads.Kv_closed.deploy ~seed:5 ~size:20 in
    let r = Workloads.Kv_closed.run ~step d in
    (r.units, r.failed, r.errors, Workloads.Kv_closed.history_ops d)
  in
  let units, failed, errors, ops = go false in
  let units', failed', errors', ops' = go true in
  Alcotest.(check int) "units" units units';
  Alcotest.(check int) "failed" failed failed';
  Alcotest.(check (list string)) "errors" errors errors';
  Alcotest.(check bool) "identical histories" true (ops = ops')

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentile needs ten samples beyond" `Quick
            test_percentile_needs_ten_beyond;
          Alcotest.test_case "quartiles match python" `Quick
            test_quartiles_match_python;
        ] );
      ( "reference",
        [ Alcotest.test_case "the reference work is fixed" `Quick test_reference_fixed ] );
      ( "compare",
        [
          Alcotest.test_case "judge against a bound" `Quick test_judge;
          Alcotest.test_case "judge seed by seed" `Quick test_judge_exact;
          Alcotest.test_case "rows from results files" `Quick
            test_rows_from_results_files;
        ] );
      ( "benchmark",
        [
          Alcotest.test_case "BENCHMARK.json lists the workloads" `Quick
            test_workloads_listed;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "every listed metric is emitted" `Quick
            test_metrics_emitted;
          Alcotest.test_case "exact metrics repeat for a seed" `Quick
            test_exact_metrics_repeat;
        ] );
      ( "gate",
        [
          Alcotest.test_case "stale read rejected" `Quick test_stale_read_rejected;
          Alcotest.test_case "engine step matches run" `Quick test_step_matches_run;
        ] );
    ]
