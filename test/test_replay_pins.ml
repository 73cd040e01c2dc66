(* The committed chaos, recovery and shard artifacts, replayed in tier 1.

   A chaos repro is pinned byte for byte: re-serializing it with the
   verdict its replay produced must reproduce the committed file, so the
   violation's kind, count and detail all stay put.  Recovery and shard
   reports are pinned through their own [matches], which compares every
   deterministic field of the replayed report.

   The reports of [experiments run all --json --seed 1] are committed
   under examples/runs and pinned byte for byte, and the two exports of
   [experiments trace --seed 3] by digest.  A change that moves any of
   them regenerates the pinned file (or digest) in the same commit and
   names the cause. *)

open Util

let parse path =
  let text = Obs.File.read path in
  match Obs.Json.parse text with
  | Ok j -> (text, j)
  | Error e -> Alcotest.failf "%s: parse error: %s" path e

let chaos_repro name () =
  let path = Filename.concat "../examples/chaos" name in
  let text, j = parse path in
  match Chaos.Campaign.repro_of_json j with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok repro ->
    let replayed = Chaos.Campaign.replay repro in
    let verdict =
      Obs.Json.member "verdict"
        (Chaos.Campaign.repro_to_json
           { repro with Chaos.Campaign.verdict = replayed.Chaos.Campaign.verdict })
    in
    (* Swap the replayed verdict into the committed document, so fields
       the artifact predates (and that parse to their defaults) stay as
       committed. *)
    let fields =
      match (Obs.Json.to_obj_opt j, verdict) with
      | Some fields, Some v ->
        List.map (fun (k, x) -> if String.equal k "verdict" then (k, v) else (k, x)) fields
      | None, _ | _, None -> Alcotest.failf "%s: not a repro object" path
    in
    let again = Obs.Json.to_string_pretty (Obs.Json.Obj fields) ^ "\n" in
    Alcotest.(check string) "replayed repro is byte-identical" text again

let recovery_report name () =
  let path = Filename.concat "../examples/recovery" name in
  let _, j = parse path in
  match Chaos.Recovery.of_json j with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok r ->
    check_true "replay matches the recorded report"
      (Chaos.Recovery.matches r (Chaos.Recovery.replay r))

let shard_report name () =
  let path = Filename.concat "../examples/shard" name in
  let _, j = parse path in
  match Shard.Tier.of_json j with
  | Error e -> Alcotest.failf "%s: %s" path e
  | Ok r ->
    check_true "replay matches the recorded report"
      (Shard.Tier.matches r (Shard.Tier.replay r))

(* Run the experiments command line in-process. *)
let experiments args =
  match
    Cmdliner.Cmd.eval
      ~argv:(Array.of_list ("stabreg-experiments" :: args))
      Exp_drivers.Cli.main
  with
  | 0 -> ()
  | code -> Alcotest.failf "experiments %s: exit %d" (String.concat " " args) code

let json_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare

let with_temp_dir f =
  let dir = Filename.temp_dir "stabreg-pins" "" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let read = Obs.File.read

let run_reports () =
  with_temp_dir (fun out ->
      experiments [ "run"; "all"; "--json=" ^ out; "--seed"; "1" ];
      let committed = "../examples/runs" in
      Alcotest.(check (list string))
        "one report per experiment" (json_files committed) (json_files out);
      List.iter
        (fun f ->
          Alcotest.(check string)
            (f ^ " is byte-identical")
            (read (Filename.concat committed f))
            (read (Filename.concat out f)))
        (json_files committed))

(* The JSONL export is 239 KB, too big to commit; the digests were taken
   from the export the commit that added this pin wrote.  The export goes
   through the run's one trace writer: the header, then one line per
   event the run's in-memory recorder saw. *)
let trace_digests () =
  with_temp_dir (fun out ->
      let jsonl = Filename.concat out "trace.jsonl"
      and chrome = Filename.concat out "trace.json" in
      experiments [ "trace"; "--seed"; "3"; "--out"; jsonl; "--chrome"; chrome ];
      let digest path = Digest.to_hex (Digest.file path) in
      Alcotest.(check string)
        "JSONL export" "d8f17c16e83bb8426f232f992a8857b6" (digest jsonl);
      Alcotest.(check string)
        "Chrome export" "2fe3db3fd76d7f9b1177e16b77cd6d7b" (digest chrome);
      let _, events = Exp_drivers.Exp_trace.traced_run ~seed:3 in
      Alcotest.(check string)
        "the header, then every recorded event"
        (String.concat ""
           (List.map
              (fun j -> Obs.Json.to_string j ^ "\n")
              (Obs.Tracefile.header ~experiment:"TRACE" ~seed:3
              :: List.map Obs.Event.to_json events)))
        (read jsonl))

let tests =
  [
    case "run all --json --seed 1 reports are byte-identical" run_reports;
    case "trace --seed 3 exports match their digests" trace_digests;
    case "chaos regular_collude_repro replays byte-identically"
      (chaos_repro "regular_collude_repro.json");
    case "chaos mwmr_mobile_roam_stuck replays byte-identically"
      (chaos_repro "mwmr_mobile_roam_stuck.json");
    case "recovery crash_burst_n9 replays" (recovery_report "crash_burst_n9.json");
    case "shard chaos_isolation_t0 replays"
      (shard_report "chaos_isolation_t0.json");
  ]
