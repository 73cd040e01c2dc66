(* The artifact codec: [experiments validate]'s schema table accepts every
   committed example and freshly produced artifact under its own schema,
   rejects unknown or missing schemas, and the replay decoders refuse
   configs their runners would crash on. *)

open Util

let read_file = Exp_drivers.Common.read_file

let parse path =
  match Obs.Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: parse error: %s" path e

let schema_of j =
  match Obs.Json.member "schema" j with
  | Some (Obs.Json.Str s) -> s
  | _ -> Alcotest.fail "document has no schema"

let check_valid ~name ~want contents =
  match Exp_drivers.Artifacts.validate contents with
  | Ok got -> Alcotest.(check string) (name ^ " schema") want got
  | Error e -> Alcotest.failf "%s rejected: %s" name e

let check_invalid name contents =
  check_true (name ^ " rejected")
    (Result.is_error (Exp_drivers.Artifacts.validate contents))

let committed () =
  let dirs = [ "chaos"; "mc"; "recovery"; "runs"; "shard" ] in
  List.concat_map
    (fun d ->
      let dir = Filename.concat "../examples" d in
      Sys.readdir dir |> Array.to_list |> List.sort String.compare
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.map (Filename.concat dir))
    dirs
  @ [ "../lint-baseline.json"; "../lint-domains.json" ]

let test_committed_validate () =
  let files = committed () in
  check_true "examples found" (List.length files >= 9);
  List.iter
    (fun path ->
      check_valid ~name:path ~want:(schema_of (parse path)) (read_file path))
    files

(* A small traced run: a regular writer/reader pair with every event
   kept in memory and its registry copied into a run report. *)
let traced_run () =
  let scn = async_scenario ~seed:3 () in
  let mem, recorded = Obs.Sink.memory () in
  Obs.Hub.attach (Harness.Scenario.hub scn) mem;
  let net = scn.Harness.Scenario.net in
  let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
  let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn
            ~write:(Registers.Swsr_regular.write w)
            ~count:3 ~gap:(Harness.Workload.gap 0 5) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn
            ~read:(fun () -> Registers.Swsr_regular.read r)
            ~count:3 ~gap:(Harness.Workload.gap 0 5) () );
    ];
  (scn, recorded ())

let test_fresh_artifacts_validate () =
  let scn, events = traced_run () in
  let report = Obs.Report.create ~experiment:"T" ~seed:3 in
  Obs.Report.set_params report ~n:9 ~f:1 ~mode:"async";
  Obs.Report.observe_metrics report (Harness.Scenario.metrics scn);
  check_valid ~name:"run report" ~want:Obs.Report.schema_version
    (Obs.Json.to_string_pretty (Obs.Report.to_json report));
  let jsonl =
    String.concat ""
      (List.map
         (fun j -> Obs.Json.to_string j ^ "\n")
         (Obs.Tracefile.header ~experiment:"T" ~seed:3
         :: List.map Obs.Event.to_json events))
  in
  check_valid ~name:"trace" ~want:Obs.Tracefile.schema_version jsonl;
  check_valid ~name:"header-only trace" ~want:Obs.Tracefile.schema_version
    (Obs.Json.to_string (Obs.Tracefile.header ~experiment:"T" ~seed:3));
  check_valid ~name:"chrome export" ~want:"chrome-trace"
    (Obs.Json.to_string_pretty (Obs.Chrome_trace.to_json events));
  let profile = Obs.Profile.create ~every:1 ~kind:"mc" () in
  Obs.Profile.sample profile ~tick:1 (fun () ->
      [ ("states", Obs.Json.Int 1) ]);
  check_valid ~name:"mc profile" ~want:Obs.Profile.schema_version
    (Obs.Json.to_string_pretty (Obs.Profile.to_json profile))

let test_unknown_schemas_rejected () =
  check_invalid "unknown schema" {|{"schema": "stabreg/nope/v1"}|};
  check_invalid "non-string schema" {|{"schema": 1}|};
  check_invalid "no schema field" {|{"config": {}}|};
  check_invalid "not json" "{nope"

(* [set path v j]: replace the member at [path] (object keys). *)
let rec set path v j =
  match (path, j) with
  | [], _ -> v
  | k :: rest, Obs.Json.Obj fields ->
    Obs.Json.Obj
      (List.map
         (fun (k', x) ->
           if String.equal k k' then (k', set rest v x) else (k', x))
         fields)
  | _ :: _, _ -> Alcotest.fail "set: not an object"

let decodes decode j = Result.is_ok (decode j)

(* Each config mutation would otherwise reach the runner and raise
   Invalid_argument there; a verdict outside the oracle's vocabulary
   could never be reproduced by a replay. *)
let test_bad_configs_rejected () =
  let shard = parse "../examples/shard/chaos_isolation_t0.json" in
  let recovery = parse "../examples/recovery/crash_burst_n9.json" in
  let chaos = parse "../examples/chaos/regular_collude_repro.json" in
  let cex = parse "../examples/mc/mc-regular-stuck.json" in
  let zero = Obs.Json.Int 0 in
  let verdict kind count =
    Obs.Json.Obj
      [
        ("kind", Obs.Json.Str kind);
        ("count", Obs.Json.Int count);
        ("detail", Obs.Json.Str "");
      ]
  in
  let rejected name decode j =
    check_false name (decodes decode j);
    check_invalid name (Obs.Json.to_string j)
  in
  check_true "committed shard report decodes"
    (decodes Shard.Tier.of_json shard);
  rejected "shards = 0" Shard.Tier.of_json
    (set [ "config"; "shards" ] zero shard);
  check_true "committed recovery report decodes"
    (decodes Chaos.Recovery.of_json recovery);
  rejected "recovery n = 0" Chaos.Recovery.of_json
    (set [ "config"; "n" ] zero recovery);
  rejected "recovery f < 0" Chaos.Recovery.of_json
    (set [ "config"; "f" ] (Obs.Json.Int (-1)) recovery);
  check_true "committed repro decodes"
    (decodes Chaos.Campaign.repro_of_json chaos);
  rejected "repro n = 0" Chaos.Campaign.repro_of_json
    (set [ "config"; "n" ] zero chaos);
  rejected "repro f < 0" Chaos.Campaign.repro_of_json
    (set [ "config"; "f" ] (Obs.Json.Int (-1)) chaos);
  let roam slot =
    let assign = [ (slot, Chaos.Strategy.Silent) ] in
    Chaos.Schedule.to_json [ Chaos.Schedule.Roam { at = 5; assign } ]
  in
  check_true "roam onto slot 8 of 9 decodes"
    (decodes Chaos.Campaign.repro_of_json (set [ "schedule" ] (roam 8) chaos));
  rejected "roam onto slot 9 of 9" Chaos.Campaign.repro_of_json
    (set [ "schedule" ] (roam 9) chaos);
  (* Beyond the resilience bound is a campaign's point, not an error. *)
  check_true "repro beyond t < n/8 decodes"
    (decodes Chaos.Campaign.repro_of_json
       (set [ "config"; "f" ] (Obs.Json.Int 4) chaos));
  check_true "committed cex decodes" (decodes Mc.Checker.cex_of_json cex);
  rejected "repro verdict bogus x-3" Chaos.Campaign.repro_of_json
    (set [ "verdict" ] (verdict "bogus" (-3)) chaos);
  rejected "cex verdict bogus x-3" Mc.Checker.cex_of_json
    (set [ "verdict" ] (verdict "bogus" (-3)) cex);
  rejected "repro verdict regularity x0" Chaos.Campaign.repro_of_json
    (set [ "verdict" ] (verdict "regularity" 0) chaos);
  rejected "cex verdict frobnicated x1" Mc.Checker.cex_of_json
    (set [ "verdict" ] (verdict "frobnicated" 1) cex)

let tests =
  [
    case "committed examples validate" test_committed_validate;
    case "fresh artifacts validate" test_fresh_artifacts_validate;
    case "unknown schemas rejected" test_unknown_schemas_rejected;
    case "unrunnable configs rejected" test_bad_configs_rejected;
  ]
