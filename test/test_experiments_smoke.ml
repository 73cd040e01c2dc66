(* Smoke coverage for every experiment driver: each must run to completion
   (their assertions live in EXPERIMENTS.md's tables; here we only demand
   they keep running — regressions in the drivers are build/test failures,
   not discoveries at paper-rewrite time) AND must produce a schema-valid
   machine-readable run report, the way `experiments.exe run --json` does.
   Output goes to the test log. *)

open Util

let smoke id run () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) "stabreg-smoke"
  in
  Exp_drivers.Common.json_dir := Some dir;
  Fun.protect
    ~finally:(fun () -> Exp_drivers.Common.json_dir := None)
    (fun () ->
      Exp_drivers.Common.with_report ~exp:id ~seed:2 (fun () -> run ~seed:2));
  let path = Filename.concat dir (id ^ ".json") in
  if not (Sys.file_exists path) then
    Alcotest.failf "%s: no report written to %s" id path;
  let j =
    match Obs.Json.parse (Exp_drivers.Common.read_file path) with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s: report unparsable: %s" id e
  in
  Sys.remove path;
  (match Obs.Report.validate j with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: report invalid: %s" id e);
  (* Every driver must actually observe a deployment: params filled in and
     at least one counter or message class recorded. *)
  let member k = Obs.Json.member k j in
  (match member "params" with
  | Some p -> (
    match Obs.Json.member "n" p with
    | Some (Obs.Json.Int n) when n > 0 -> ()
    | _ -> Alcotest.failf "%s: params.n not observed" id)
  | None -> Alcotest.failf "%s: params missing" id);
  let nonempty_obj k =
    match member k with
    | Some (Obs.Json.Obj (_ :: _)) -> true
    | _ -> false
  in
  check_true
    (Printf.sprintf "%s has traffic or counters" id)
    (nonempty_obj "messages" || nonempty_obj "counters")

let tests =
  List.map
    (fun (id, _, run) -> case (Printf.sprintf "%s runs" id) (smoke id run))
    Exp_drivers.Cli.experiments
