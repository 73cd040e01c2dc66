(* The repo benchmark.

     sh perfbench/run.sh --workload kv-closed --seed 1 --seconds 20 --trace 0
     dune exec perfbench/bin/main.exe                  (every workload)
     dune exec perfbench/bin/main.exe -- --compare BASE.json NEW.json

   A single-workload run prints its metrics and, as its last line, its
   JSON result; it exits 1 when a correctness check failed.  Without
   --workload every workload runs in its own child process, so set-up
   time and peak heap are per workload. *)

open Perfbench

let usage =
  "main.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--runs \
   K] [--json OUT]\n\
   main.exe --compare BASE.json NEW.json"

let write_json path j =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Obs.Json.to_string_pretty j);
      output_char oc '\n')

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

(* Spans of the last traced run of each workload; overwritten per run so
   repeated runs do not pile up. *)
let spans_path name =
  Filename.concat (Filename.concat "perfbench" "results") (name ^ ".spans.jsonl")

(* Run from the repository root, as every command in the README is. *)
let benchmark () =
  match Benchmark.load "BENCHMARK.json" with
  | Ok b -> b
  | Error e ->
    prerr_endline e;
    exit 2

let run_one bench (w : Workloads.t) ~seed ~seconds ~trace ~json =
  let r, spans = Measure.run bench w ~seed ~seconds ~trace in
  Format.printf "%a%!" Measure.pp r;
  if trace then begin
    let path = spans_path w.name in
    mkdir_p (Filename.dirname path);
    Spans.write spans path;
    Printf.printf "spans written to %s\n" path
  end;
  let line = Measure.to_json r in
  Option.iter
    (fun path ->
      write_json path
        (Compare.results_file
           [ Compare.run_record ~workload:w.name ~seed ~seconds ~trace line ]))
    json;
  print_endline (Obs.Json.to_string line);
  exit (if r.correct then 0 else 1)

let run_all ~seed ~seconds ~trace ~runs ~json =
  let exe = Sys.executable_name in
  let records = ref [] and failures = ref [] in
  List.iter
    (fun (w : Workloads.t) ->
      for i = 0 to runs - 1 do
        let seed = seed + i in
        let ic =
          Unix.open_process_args_in exe
            [|
              exe; "--workload"; w.name; "--seed"; string_of_int seed;
              "--seconds"; Printf.sprintf "%g" seconds; "--trace";
              (if trace then "1" else "0");
            |]
        in
        let last = ref "" in
        (try
           while true do
             let l = input_line ic in
             print_endline l;
             last := l
           done
         with End_of_file -> ());
        let status = Unix.close_process_in ic in
        (match Obs.Json.parse !last with
        | Ok result ->
          records :=
            Compare.run_record ~workload:w.name ~seed ~seconds ~trace result
            :: !records
        | Error _ -> ());
        if status <> Unix.WEXITED 0 then
          failures := Printf.sprintf "%s (seed %d)" w.name seed :: !failures
      done)
    Workloads.all;
  Option.iter
    (fun path -> write_json path (Compare.results_file (List.rev !records)))
    json;
  match List.rev !failures with
  | [] -> Printf.printf "every run passed its checks\n"
  | fs ->
    Printf.printf "failed: %s\n" (String.concat ", " fs);
    exit 1

let compare_files bench base next =
  let ( let* ) = Result.bind in
  let runs path =
    let* j = Json_read.file path in
    Result.map_error (fun e -> path ^ ": " ^ e) (Compare.runs_of_results j)
  in
  let* base = runs base in
  let* next = runs next in
  Ok (Compare.rows bench ~base ~next)

let compare bench base next =
  match compare_files bench base next with
  | Error e ->
    prerr_endline e;
    exit 2
  | Ok rows ->
    Printf.printf "%-14s %-32s %14s %14s %8s  %s\n" "workload" "metric" "base"
      "new" "change" "verdict";
    List.iter
      (fun (r : Compare.row) ->
        let change =
          if r.base_median = 0.0 then "-"
          else
            Printf.sprintf "%+.1f%%"
              ((r.next_median -. r.base_median) /. Float.abs r.base_median *. 100.0)
        in
        Printf.printf "%-14s %-32s %14.6g %14.6g %8s  %s\n" r.workload r.metric
          r.base_median r.next_median change
          (Compare.verdict_to_string r.verdict))
      rows;
    if List.exists (fun (r : Compare.row) -> r.verdict = Compare.Worse) rows then
      exit 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and runs = ref 1 and json = ref None in
  let base = ref "" and comparison = ref None in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME one workload (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 traced run with per-layer metrics");
      ("--runs", Arg.Set_int runs, "K runs per workload, seeds N..N+K-1 (default 1)");
      ("--json", Arg.String (fun p -> json := Some p), "OUT write the results file");
      ( "--compare",
        Arg.Tuple
          [
            Arg.Set_string base;
            Arg.String (fun next -> comparison := Some (!base, next));
          ],
        "BASE NEW compare two results files against BENCHMARK.json bounds" );
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  let trace = !trace = 1 in
  let bench = benchmark () in
  match (!comparison, !workload) with
  | Some (b, n), _ -> compare bench b n
  | None, "" -> run_all ~seed:!seed ~seconds:!seconds ~trace ~runs:!runs ~json:!json
  | None, name -> (
    match Workloads.find name with
    | Some w -> run_one bench w ~seed:!seed ~seconds:!seconds ~trace ~json:!json
    | None ->
      Printf.eprintf "unknown workload %S; known: %s\n" name
        (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
      exit 2)
