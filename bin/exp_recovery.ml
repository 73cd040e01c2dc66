(* RECOVERY: crash-recovery bursts, client degradation, and the
   stabilization-time oracle.

     dune exec bin/experiments.exe -- recovery
     dune exec bin/experiments.exe -- recovery -n 9 --bursts 3 --out results/recovery
     dune exec bin/experiments.exe -- recovery --replay examples/recovery/....json
*)

open Chaos

let artifact_path ~out ~n ~seed =
  Filename.concat out (Printf.sprintf "recovery-n%d-seed%d.json" n seed)

let print_report (r : Recovery.report) =
  let cfg = r.Recovery.config in
  Printf.printf
    "n=%d t=%d: %d burst(s) x %d slot(s), down %d ticks, every %d ticks\n"
    cfg.Recovery.n cfg.Recovery.f cfg.Recovery.bursts cfg.Recovery.crashed
    cfg.Recovery.down_for cfg.Recovery.gap;
  List.iter
    (fun b -> Format.printf "  %a@." Recovery.pp_burst b)
    r.Recovery.bursts;
  let pp_tally = Registers.Outcome.pp_tally in
  Format.printf "  writes: %a@." pp_tally r.Recovery.write_ops;
  Format.printf "  reads:  %a@." pp_tally r.Recovery.read_ops;
  (match r.Recovery.stuck with
  | [] -> ()
  | stuck ->
    Printf.printf "  STUCK fibers: %s\n" (String.concat "; " stuck));
  Printf.printf "  duration: %d ticks, converged: %b\n" r.Recovery.duration
    r.Recovery.converged

let report_json ~n (r : Recovery.report) path =
  Obs.Json.Obj
    [
      ("n", Obs.Json.Int n);
      ("converged", Obs.Json.Bool r.Recovery.converged);
      ( "stab_times",
        Obs.Json.List
          (List.map
             (fun (b : Recovery.burst_report) ->
               match b.Recovery.stab_time with
               | Some t -> Obs.Json.Int t
               | None -> Obs.Json.Null)
             r.Recovery.bursts) );
      ("stuck", Obs.Json.Int (List.length r.Recovery.stuck));
      ("artifact", Obs.Json.Str path);
    ]

(* Run the convergence sweep; returns each size's report, labelled, for
   the caller's expectation logic. *)
let run ~ns ~bursts ~crashed ~down_for ~retry ~seed ~out () =
  Printf.printf
    "recovery sweep: n=[%s] bursts=%d crashed=%d down_for=%d retry=%b \
     seed=%d\n\n"
    (String.concat "; " (List.map string_of_int ns))
    bursts crashed down_for retry seed;
  let on_scenario = Common.on_first_scenario () in
  let results =
    List.map
      (fun n ->
        let cfg =
          {
            Recovery.default_config with
            Recovery.n;
            bursts;
            crashed;
            down_for;
            retry;
          }
        in
        let r = Recovery.run ~on_scenario cfg ~seed in
        print_report r;
        let path = artifact_path ~out ~n ~seed in
        Common.write_artifact path (Recovery.to_json r);
        Printf.printf "  artifact: %s\n\n" path;
        (n, r, path))
      ns
  in
  Common.add_extra "recovery"
    (Obs.Json.Obj
       [
         ("seed", Obs.Json.Int seed);
         ("bursts", Obs.Json.Int bursts);
         ("crashed", Obs.Json.Int crashed);
         ("down_for", Obs.Json.Int down_for);
         ("retry", Obs.Json.Bool retry);
         ( "runs",
           Obs.Json.List
             (List.map (fun (n, r, path) -> report_json ~n r path) results)
         );
       ]);
  List.map (fun (n, r, _) -> (Printf.sprintf "n=%d" n, r)) results

(* Replay a committed stabreg/recovery/v1 artifact; [Ok replayed] only
   when the re-execution reproduces the recorded report bit-for-bit. *)
let replay path =
  Common.replay_artifact ~key:"recovery_replay" ~decode:Recovery.of_json
    ~replay:Recovery.replay ~what:"the recorded report bit-for-bit"
    ~show:(Common.show_sides print_report)
    ~same:Recovery.matches
    ~extra:(fun _ replayed ~same ->
      [
        ("identical", Obs.Json.Bool same);
        ("converged", Obs.Json.Bool replayed.Recovery.converged);
      ])
    path
