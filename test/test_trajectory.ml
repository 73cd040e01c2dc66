(* The committed benchmark trajectory, BENCH_7.json, written by
   [make bench] and used by CI as the reference of
   [perfbench --compare].  Its shape is pinned here, so a truncated or
   hand-edited file cannot become the reference: the perfbench results
   schema, a host note with the core count, at least five untraced runs
   and one traced seed-1 run of every workload that BENCHMARK.json
   names, and every run correct with nothing failed. *)

open Util

let parse path =
  match Obs.Json.parse (Obs.File.read path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: parse error: %s" path e

let member path key j =
  match Obs.Json.member key j with
  | Some v -> v
  | None -> Alcotest.failf "%s: no %S" path key

let list path key j =
  match Obs.Json.to_list_opt (member path key j) with
  | Some l -> l
  | None -> Alcotest.failf "%s: %S is not a list" path key

let str path key j =
  match Obs.Json.to_string_opt (member path key j) with
  | Some s -> s
  | None -> Alcotest.failf "%s: %S is not a string" path key

let int path key j =
  match Obs.Json.to_int_opt (member path key j) with
  | Some i -> i
  | None -> Alcotest.failf "%s: %S is not an int" path key

let is_true path key j = Obs.Json.equal (member path key j) (Obs.Json.Bool true)

let workloads () =
  let path = "../BENCHMARK.json" in
  match List.map (str path "name") (list path "workloads" (parse path)) with
  | [] -> Alcotest.failf "%s names no workload" path
  | ws -> ws

let test_shape () =
  let path = "../BENCH_7.json" in
  let j = parse path in
  Alcotest.(check string) "schema" "perfbench/results/v1" (str path "schema" j);
  check_true "host.cores is positive" (int path "cores" (member path "host" j) > 0);
  let runs = list path "runs" j in
  List.iter
    (fun r ->
      let w = str path "workload" r in
      let result = member path "result" r in
      check_true (w ^ " run is correct") (is_true path "correct" result);
      check_int (w ^ " run failed nothing") 0 (int path "failed" result))
    runs;
  let runs_of w ~trace =
    List.filter
      (fun r ->
        String.equal (str path "workload" r) w
        && Bool.equal (is_true path "trace" r) trace)
      runs
  in
  List.iter
    (fun w ->
      check_true (w ^ " has at least 5 untraced runs")
        (List.length (runs_of w ~trace:false) >= 5);
      check_true (w ^ " has a traced seed-1 run")
        (List.exists (fun r -> int path "seed" r = 1) (runs_of w ~trace:true)))
    (workloads ())

let tests = [ case "BENCH_7.json covers every workload" test_shape ]
