(* MC: bounded model checking of the register protocols — exhaustive
   interleaving + corruption exploration with replayable counterexamples.

     dune exec bin/experiments.exe -- mc --family regular --servers 3 -t 0
     dune exec bin/experiments.exe -- mc --family regular --byz 2 \
       --expect violation --out results/mc
     dune exec bin/experiments.exe -- mc --replay examples/mc/....json
*)

open Mc

let ( let* ) = Result.bind

let stats_to_json (s : Checker.stats) =
  Obs.Json.Obj
    [
      ("states", Obs.Json.Int s.states);
      ("transitions", Obs.Json.Int s.transitions);
      ("terminals", Obs.Json.Int s.terminals);
      ("revisits", Obs.Json.Int s.revisits);
      ("sleep_skips", Obs.Json.Int s.sleep_skips);
      ("sym_skips", Obs.Json.Int s.sym_skips);
      ("replays", Obs.Json.Int s.replays);
      ("off_target", Obs.Json.Int s.off_target);
      ("fp_collisions", Obs.Json.Int s.fp_collisions);
      ("peak_visited", Obs.Json.Int s.peak_visited);
      ("max_depth_seen", Obs.Json.Int s.max_depth_seen);
      ("truncated", Obs.Json.Bool s.truncated);
    ]

let pp_stats (s : Checker.stats) =
  Printf.printf
    "  states=%d transitions=%d terminals=%d revisits=%d sleep_skips=%d \
     sym_skips=%d replays=%d off_target=%d fp_collisions=%d \
     peak_visited=%d max_depth=%d%s\n"
    s.states s.transitions s.terminals s.revisits s.sleep_skips s.sym_skips
    s.replays s.off_target s.fp_collisions s.peak_visited s.max_depth_seen
    (if s.truncated then " TRUNCATED" else "")

let describe_outcome tag (o : Checker.outcome) =
  Format.printf "%s: %a — %s@." tag Checker.pp_verdict o.verdict
    (if o.exhaustive then "exhaustive (every reachable state checked)"
     else "bounded (budget truncated the search)");
  pp_stats o.stats

let artifact_path ~out (cfg : Config.t) v =
  Filename.concat out
    (Printf.sprintf "mc-%s-%s.json"
       (Config.family_to_string cfg.family)
       (Checker.verdict_kind v))

let emit_cex ~out cfg (result : Checker.run) =
  match result.cex with
  | None -> None
  | Some cex ->
    let path = artifact_path ~out cfg cex.Checker.verdict in
    Common.write_artifact path (Checker.cex_to_json cex);
    Printf.printf "counterexample: %d move(s) after %d shrink run(s) -> %s\n"
      (List.length cex.Checker.trace)
      result.shrink_runs path;
    (match Checker.replay cex with
    | Ok _ -> Printf.printf "artifact replays bit-for-bit\n"
    | Error e -> Printf.printf "REPLAY FAILED: %s\n" e);
    Some (path, cex)

(* --expect against the verdict of the run the command made (search,
   guided run or replay): clean must not be a budget-truncated search,
   and a violation must come with an artifact that replays. *)
let expect_verdict ~expect ~tag ~truncated ~artifact verdict =
  match (expect, verdict) with
  | None, _ -> Ok ()
  | Some `Clean, Checker.Clean when truncated ->
    Error
      "expected an exhaustive clean verdict, but a budget truncated the \
       search (raise --max-states/--depth)"
  | Some `Clean, Checker.Clean -> Ok ()
  | Some `Clean, v ->
    Error (Format.asprintf "expected clean, found %a" Checker.pp_verdict v)
  | Some `Violation, Checker.Violation _ -> (
    match artifact with
    | Some cex ->
      Result.map_error
        (fun e -> "violation artifact failed to replay: " ^ e)
        (Result.map ignore (Checker.replay cex))
    | None -> Error "violation found but no artifact was produced")
  | Some `Violation, Checker.Clean ->
    Error (Printf.sprintf "expected a violation, %s came back clean" tag)

(* Run one search (plus the optional no-reduction cross-check); returns
   [Ok ()] or a CI-facing error. *)
let run ~cfg ~budgets ~reduction ~use_visited ~seed ~target ~cross_check
    ~domains ~sequential_check ~race_check ~expect ~out ?recorder () =
  Printf.printf
    "mc: family=%s n=%d t=%d byz=%d writes=%d reads=%d menu=%d oracle=%s \
     reduction=%s max_states=%d max_depth=%d domains=%d%s%s\n\n"
    (Config.family_to_string cfg.Config.family)
    cfg.Config.n cfg.Config.f
    (List.length cfg.Config.byz)
    cfg.Config.writes cfg.Config.reads
    (List.length cfg.Config.menu)
    (Config.oracle_to_string cfg.Config.oracle)
    (Checker.reduction_to_string reduction)
    budgets.Checker.max_states budgets.Checker.max_depth domains
    (match seed with
    | None -> ""
    | Some s -> Printf.sprintf " seed=%d" s)
    (match target with
    | None -> ""
    | Some t -> Printf.sprintf " target=%s" t);
  let t0 = Stdlib.Sys.time () in
  if race_check then
    print_endline
      "race-check: the frontier search runs twice with inverted steal order";
  let result =
    Checker.check ~budgets ~reduction ~use_visited ?seed ?target ?recorder
      ~race_check ~domains ~log:print_endline cfg
  in
  let dt = Stdlib.Sys.time () -. t0 in
  describe_outcome "search" result.outcome;
  Printf.printf "  %.2fs (%.0f states/s)\n" dt
    (float_of_int result.outcome.stats.states /. Float.max dt 1e-9);
  let artifact = emit_cex ~out cfg result in
  (* --sequential-check: re-run the plain sequential search and demand the
     cooperative frontier search reported the same verdict and the same
     trace.  Any reported counterexample is re-derived through the
     canonical sequential order, so any disagreement is a bug. *)
  let sequential =
    if not sequential_check then None
    else begin
      Printf.printf "\nsequential-check: re-searching with domains=1\n";
      let o = Checker.search ~budgets ~reduction ~use_visited ?seed ?target cfg in
      describe_outcome "sequential" o;
      Some o
    end
  in
  let cross =
    if not cross_check then None
    else begin
      Printf.printf "\ncross-check: re-searching with reduction=none\n";
      let o =
        Checker.search ~budgets ~reduction:Checker.No_reduction ~use_visited
          ?seed ?target cfg
      in
      describe_outcome "cross-check" o;
      Some o
    end
  in
  Common.add_extra "mc"
    (Obs.Json.Obj
       ([
          ("config", Config.to_json cfg);
          ("reduction", Obs.Json.Str (Checker.reduction_to_string reduction));
          ( "seed",
            match seed with
            | None -> Obs.Json.Null
            | Some s -> Obs.Json.Int s );
          ( "target",
            match target with
            | None -> Obs.Json.Null
            | Some t -> Obs.Json.Str t );
          ( "verdict",
            Obs.Json.Str (Checker.verdict_kind result.outcome.verdict) );
          ("exhaustive", Obs.Json.Bool result.outcome.exhaustive);
          ("stats", stats_to_json result.outcome.stats);
          ("seconds", Obs.Json.Float dt);
          ("domains", Obs.Json.Int domains);
          ("sequential_check", Obs.Json.Bool sequential_check);
          ("race_check", Obs.Json.Bool race_check);
        ]
       @ (match artifact with
         | Some (path, _) -> [ ("artifact", Obs.Json.Str path) ]
         | None -> [])
       @
       match cross with
       | Some o ->
         [
           ( "cross_check",
             Obs.Json.Obj
               [
                 ("verdict", Obs.Json.Str (Checker.verdict_kind o.verdict));
                 ("exhaustive", Obs.Json.Bool o.exhaustive);
                 ("stats", stats_to_json o.stats);
               ] );
         ]
       | None -> []));
  let verdict_errors =
    match
      expect_verdict ~expect ~tag:"search"
        ~truncated:(not result.outcome.exhaustive)
        ~artifact:(Option.map snd artifact) result.outcome.verdict
    with
    | Ok () -> []
    | Error e -> [ e ]
  in
  let sequential_errors =
    match sequential with
    | None -> []
    | Some o ->
      let traces_equal =
        match (result.outcome.trace, o.Checker.trace) with
        | None, None -> true
        | Some a, Some b ->
          List.length a = List.length b && List.for_all2 Sys.move_equal a b
        | _ -> false
      in
      if Checker.verdict_equal result.outcome.verdict o.Checker.verdict
         && traces_equal
      then []
      else
        [
          Format.asprintf
            "sequential-check disagrees: parallel search found %a, \
             sequential found %a%s"
            Checker.pp_verdict result.outcome.verdict Checker.pp_verdict
            o.Checker.verdict
            (if traces_equal then "" else " (traces differ)");
        ]
  in
  let cross_errors =
    match cross with
    | None -> []
    | Some o ->
      if Checker.same_verdict o.verdict result.outcome.verdict then []
      else
        [
          Format.asprintf
            "cross-check disagrees: reduced search found %a, unreduced \
             found %a"
            Checker.pp_verdict result.outcome.verdict Checker.pp_verdict
            o.verdict;
        ]
  in
  match verdict_errors @ sequential_errors @ cross_errors with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " errs)

(* Check a hand-written witness schedule: the file names the config and
   the critical deliveries to force, the drain is deterministic, and a
   violation is shrunk into the same replayable artifact the search
   produces. *)
let guide ~expect ~out path =
  match Common.read_artifact path Checker.guide_of_json with
  | Error _ as e -> e
  | Ok (cfg, schedule) -> (
      Printf.printf "guide: %s (%d scheduled move(s))\n" path
        (List.length schedule);
      let result = Checker.guided ~log:print_endline cfg schedule in
      describe_outcome "guided" result.outcome;
      let artifact = emit_cex ~out cfg result in
      Common.add_extra "mc_guide"
        (Obs.Json.Obj
           ([
              ("schedule", Obs.Json.Str path);
              ("config", Config.to_json cfg);
              ( "verdict",
                Obs.Json.Str (Checker.verdict_kind result.outcome.verdict)
              );
            ]
           @
           match artifact with
           | Some (p, _) -> [ ("artifact", Obs.Json.Str p) ]
           | None -> []));
      expect_verdict ~expect ~tag:"guided run" ~truncated:false
        ~artifact:(Option.map snd artifact) result.outcome.verdict)

(* Replay a counterexample artifact; Ok when it reproduces bit-for-bit
   and its verdict meets [expect]. *)
let replay ~expect path =
  let* cex, replayed =
    Common.replay_artifact ~key:"mc_replay" ~decode:Checker.cex_of_json
      ~replay:(fun ?on_scenario:_ cex -> (cex, Checker.replay cex))
      ~what:"the artifact bit-for-bit"
      ~show:(fun cex (_, replayed) ->
        Format.printf "recorded verdict: %a (%d move(s), digest %s)@."
          Checker.pp_verdict cex.Checker.verdict
          (List.length cex.Checker.trace)
          cex.Checker.digest;
        match replayed with
        | Ok v -> Format.printf "replayed verdict: %a@." Checker.pp_verdict v
        | Error e -> Printf.printf "replay failed: %s\n" e)
      ~same:(fun _ (_, replayed) -> Result.is_ok replayed)
      ~extra:(fun cex (_, replayed) ~same:_ ->
        [
          ("recorded", Obs.Json.Str (Checker.verdict_kind cex.Checker.verdict));
          ( "replayed",
            Obs.Json.Str
              (match replayed with
              | Ok v -> Checker.verdict_kind v
              | Error _ -> "error") );
        ])
      path
  in
  let* verdict = replayed in
  expect_verdict ~expect ~tag:"replay" ~truncated:false ~artifact:(Some cex)
    verdict
