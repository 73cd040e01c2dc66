(* CHAOS: randomized fault-schedule campaigns against one register family,
   with counterexample shrinking and deterministic replay.

     dune exec bin/experiments.exe -- chaos --family regular --trials 5
     dune exec bin/experiments.exe -- chaos --family regular --byz 3 \
       --strategy collude --expect violation
     dune exec bin/experiments.exe -- chaos --replay examples/chaos/....json
*)

open Chaos

let artifact_path ~out ~family ~index ~trial_seed =
  Filename.concat out
    (Printf.sprintf "%s-trial%d-seed%d.json"
       (Campaign.family_to_string family)
       index trial_seed)

(* Run one campaign; returns the violating trials' artifact paths. *)
let run ~family ~medium ~byz ~strategy ~seed ~trials ~domains ~race_check
    ~race_fraction ~out ?recorder () =
  let base = Campaign.default_config ~family in
  let cfg =
    {
      base with
      Campaign.medium;
      initial = List.init byz (fun i -> (i, strategy));
    }
  in
  Printf.printf
    "chaos campaign: family=%s medium=%s n=%d t=%d initial=[%s] trials=%d \
     seed=%d domains=%d\n\n"
    (Campaign.family_to_string family)
    (match medium with Campaign.Fifo -> "fifo" | Campaign.Lossy -> "lossy")
    cfg.Campaign.n cfg.Campaign.f
    (String.concat "; "
       (List.map
          (fun (slot, s) ->
            Printf.sprintf "s%d:%s" slot (Strategy.to_string s))
          cfg.Campaign.initial))
    trials seed domains;
  if race_check then
    if race_fraction >= 1.0 then
      print_endline
        "race-check: every trial runs twice with inverted scheduling order"
    else
      Printf.printf
        "race-check: a deterministic %.0f%% of trials run twice with \
         inverted scheduling order\n"
        (race_fraction *. 100.);
  let on_scenario ~trial scn =
    if trial = 0 then begin
      Common.attach_trace_sink (Harness.Scenario.hub scn);
      Common.observe_scn scn
    end
  in
  let result =
    Campaign.run ~on_scenario ~log:print_endline ?recorder ~race_check
      ~race_fraction ~domains cfg ~seed ~trials
  in
  print_newline ();
  let artifacts =
    List.filter_map
      (fun (t : Campaign.trial) ->
        match t.repro with
        | None -> None
        | Some repro ->
          let path =
            artifact_path ~out ~family ~index:t.index
              ~trial_seed:t.trial_seed
          in
          Common.write_artifact path (Campaign.repro_to_json repro);
          Printf.printf
            "trial %d: %s -> shrunk to %d event(s) in %d run(s), repro: %s\n"
            t.index
            (Campaign.verdict_kind t.outcome.Campaign.verdict)
            (List.length repro.Campaign.schedule)
            t.shrink_runs path;
          Some path)
      result.Campaign.trials
  in
  let violations = Campaign.violations result in
  Printf.printf "%d/%d trial(s) violated\n" (List.length violations) trials;
  Common.add_extra "chaos"
    (Obs.Json.Obj
       [
         ("family", Obs.Json.Str (Campaign.family_to_string family));
         ("trials", Obs.Json.Int trials);
         ("domains", Obs.Json.Int domains);
         ("race_check", Obs.Json.Bool race_check);
         ("race_fraction", Obs.Json.Float race_fraction);
         ("violations", Obs.Json.Int (List.length violations));
         ( "verdicts",
           Obs.Json.List
             (List.map
                (fun (t : Campaign.trial) ->
                  Obs.Json.Str (Campaign.verdict_kind t.outcome.Campaign.verdict))
                result.Campaign.trials) );
         ("artifacts", Obs.Json.List (List.map (fun p -> Obs.Json.Str p) artifacts));
       ]);
  violations

(* Replay a repro artifact; Ok when the replay reproduces the recorded
   verdict exactly: kind, count and detail. *)
let replay path =
  match Common.read_artifact path Campaign.repro_of_json with
  | Error _ as e -> e
  | Ok repro -> (
      let on_scenario scn =
        Common.attach_trace_sink (Harness.Scenario.hub scn);
        Common.observe_scn scn
      in
      let outcome = Campaign.replay ~on_scenario repro in
      Format.printf "recorded verdict: %a@." Campaign.pp_verdict
        repro.Campaign.verdict;
      Format.printf "replayed verdict: %a@." Campaign.pp_verdict
        outcome.Campaign.verdict;
      Printf.printf "schedule: %d event(s), %d ops, %d ticks\n"
        (List.length repro.Campaign.schedule)
        outcome.Campaign.ops outcome.Campaign.duration;
      Common.add_extra "chaos_replay"
        (Obs.Json.Obj
           [
             ("artifact", Obs.Json.Str path);
             ( "recorded",
               Obs.Json.Str (Campaign.verdict_kind repro.Campaign.verdict) );
             ( "replayed",
               Obs.Json.Str (Campaign.verdict_kind outcome.Campaign.verdict) );
           ]);
      if Campaign.verdict_equal repro.Campaign.verdict outcome.Campaign.verdict
      then begin
        Printf.printf "replay reproduced the recorded verdict\n";
        Ok ()
      end
      else Error "replay did NOT reproduce the recorded verdict")
