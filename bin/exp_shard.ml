(* SHARD: the sharded storage tier under an open-loop Zipfian workload.

     dune exec bin/experiments.exe -- shard
     dune exec bin/experiments.exe -- shard --shards 4 --ops 2000 --domains 2
     dune exec bin/experiments.exe -- shard --chaos-target 1 --trials 3
     dune exec bin/experiments.exe -- shard --replay examples/shard/....json
*)

let artifact_path ~out ~shards ~seed =
  Filename.concat out (Printf.sprintf "shard-S%d-seed%d.json" shards seed)

let trial_path ~out ~index ~seed =
  Filename.concat out (Printf.sprintf "shard-chaos-t%d-seed%d.json" index seed)

let print_report (r : Shard.Tier.report) =
  let cfg = r.Shard.Tier.config in
  Printf.printf
    "S=%d shards (x%d vnodes), n=%d t=%d: %d ops over %d keys, theta=%g\n"
    cfg.Shard.Tier.shards cfg.Shard.Tier.vnodes cfg.Shard.Tier.n
    cfg.Shard.Tier.f r.Shard.Tier.ops cfg.Shard.Tier.workload.Workload.Openloop.keys
    cfg.Shard.Tier.workload.Workload.Openloop.theta;
  List.iter
    (fun s -> Format.printf "  %a@." Shard.Tier.pp_shard s)
    r.Shard.Tier.shards;
  Format.printf "  writes: %a@." Shard.Tier.pp_tally r.Shard.Tier.writes;
  Format.printf "  reads:  %a@." Shard.Tier.pp_tally r.Shard.Tier.reads;
  (match
     List.concat_map (fun (s : Shard.Tier.shard_report) -> s.Shard.Tier.stuck)
       r.Shard.Tier.shards
   with
  | [] -> ()
  | stuck -> Printf.printf "  STUCK fibers: %s\n" (String.concat "; " stuck));
  Printf.printf "  duration: %d ticks, isolated: %b, clean: %b\n"
    r.Shard.Tier.duration r.Shard.Tier.isolated r.Shard.Tier.clean

let report_extra ~shards ~ops_per_sec (r : Shard.Tier.report) path =
  Obs.Json.Obj
    [
      ("shards", Obs.Json.Int shards);
      ("ops", Obs.Json.Int r.Shard.Tier.ops);
      ("ops_per_sec", Obs.Json.Float ops_per_sec);
      ("duration", Obs.Json.Int r.Shard.Tier.duration);
      ("clean", Obs.Json.Bool r.Shard.Tier.clean);
      ("isolated", Obs.Json.Bool r.Shard.Tier.isolated);
      ("artifact", Obs.Json.Str path);
    ]

(* Sweep the shard counts; returns each size's report, labelled, for the
   caller's expectation logic. *)
let run ~shards_list ~base_cfg ~domains ~seed ~out () =
  let wl = base_cfg.Shard.Tier.workload in
  Printf.printf
    "shard sweep: S=[%s] keys=%d clients=%d ops=%d theta=%g write_ratio=%g \
     domains=%d seed=%d\n\n"
    (String.concat "; " (List.map string_of_int shards_list))
    wl.Workload.Openloop.keys wl.Workload.Openloop.clients
    wl.Workload.Openloop.ops wl.Workload.Openloop.theta
    wl.Workload.Openloop.write_ratio domains seed;
  let on_scenario = Common.on_first_scenario () in
  let results =
    List.map
      (fun shards ->
        let cfg = { base_cfg with Shard.Tier.shards } in
        let t0 = Unix.gettimeofday () in
        let r = Shard.Tier.run ~on_scenario ~domains cfg ~seed in
        let dt = Unix.gettimeofday () -. t0 in
        let ops_per_sec =
          if dt > 0.0 then float_of_int r.Shard.Tier.ops /. dt else 0.0
        in
        print_report r;
        Printf.printf "  wall: %.3fs -> %.0f ops/sec\n" dt ops_per_sec;
        let path = artifact_path ~out ~shards ~seed in
        Common.write_artifact path (Shard.Tier.to_json r);
        Printf.printf "  artifact: %s\n\n" path;
        (shards, r, ops_per_sec, path))
      shards_list
  in
  Common.add_extra "shard"
    (Obs.Json.Obj
       [
         ("seed", Obs.Json.Int seed);
         ("domains", Obs.Json.Int domains);
         ( "runs",
           Obs.Json.List
             (List.map
                (fun (shards, r, ops_per_sec, path) ->
                  report_extra ~shards ~ops_per_sec r path)
                results) );
       ]);
  List.map (fun (shards, r, _, _) -> (Printf.sprintf "S=%d" shards, r)) results

(* Single-shard fault campaign; returns each trial's report, labelled. *)
let chaos ~target ~trials ~base_cfg ~domains ~seed ~out () =
  let cfg = { Chaos.Shard_campaign.default_config with tier = base_cfg; target } in
  Printf.printf
    "shard chaos campaign: target=%d trials=%d (2 corruptions + 1 \
     crash-recovery per trial) seed=%d\n\n"
    target trials seed;
  let on_scenario = Common.on_first_scenario () in
  let result =
    Chaos.Shard_campaign.run ~on_scenario ~domains cfg ~seed ~trials
  in
  List.iter
    (fun (t : Chaos.Shard_campaign.trial) ->
      Printf.printf "trial %d (seed %d):\n" t.Chaos.Shard_campaign.index
        t.Chaos.Shard_campaign.trial_seed;
      print_report t.Chaos.Shard_campaign.report;
      let path = trial_path ~out ~index:t.Chaos.Shard_campaign.index
          ~seed:t.Chaos.Shard_campaign.trial_seed in
      Common.write_artifact path
        (Shard.Tier.to_json t.Chaos.Shard_campaign.report);
      Printf.printf "  artifact: %s\n\n" path)
    result.Chaos.Shard_campaign.trials;
  let breaches = Chaos.Shard_campaign.breaches result in
  Common.add_extra "shard_chaos"
    (Obs.Json.Obj
       [
         ("seed", Obs.Json.Int seed);
         ("target", Obs.Json.Int target);
         ("trials", Obs.Json.Int trials);
         ("breaches", Obs.Json.Int (List.length breaches));
       ]);
  List.map
    (fun (t : Chaos.Shard_campaign.trial) ->
      (Printf.sprintf "trial %d" t.index, t.report))
    result.Chaos.Shard_campaign.trials

(* Replay a committed stabreg/shard-report/v1 artifact; [Ok replayed]
   only when the re-execution reproduces the recorded report
   bit-for-bit. *)
let replay ~domains path =
  Common.replay_artifact ~key:"shard_replay" ~decode:Shard.Tier.of_json
    ~replay:(Shard.Tier.replay ~domains) ~what:"the recorded report bit-for-bit"
    ~show:(Common.show_sides print_report)
    ~same:Shard.Tier.matches
    ~extra:(fun _ replayed ~same ->
      [
        ("identical", Obs.Json.Bool same);
        ("isolated", Obs.Json.Bool replayed.Shard.Tier.isolated);
      ])
    path
