(* The committed chaos, recovery and shard artifacts, replayed in tier 1.

   A chaos repro is pinned byte for byte: re-serializing it with the
   verdict its replay produced must reproduce the committed file, so the
   violation's kind, count and detail all stay put.  Recovery and shard
   reports are pinned through their own [matches], which compares every
   deterministic field of the replayed report. *)

open Util

let parse path =
  let text = Exp_drivers.Common.read_file path in
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

let tests =
  [
    case "chaos regular_collude_repro replays byte-identically"
      (chaos_repro "regular_collude_repro.json");
    case "chaos mwmr_mobile_roam_stuck replays byte-identically"
      (chaos_repro "mwmr_mobile_roam_stuck.json");
    case "recovery crash_burst_n9 replays" (recovery_report "crash_burst_n9.json");
    case "shard chaos_isolation_t0 replays"
      (shard_report "chaos_isolation_t0.json");
  ]
