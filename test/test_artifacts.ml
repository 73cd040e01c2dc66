(* The artifact codec: [experiments validate]'s schema table accepts every
   committed example and freshly produced artifact under its own schema,
   rejects unknown or missing schemas, and the replay decoders refuse
   configs their runners would crash on. *)

open Util

let read_file = Obs.File.read

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
  let recorded = Obs.Hub.record (Harness.Scenario.hub scn) in
  let net = scn.Harness.Scenario.net in
  let w = Registers.Swsr_regular.writer ~net ~client_id:100 ~inst:0 in
  let r = Registers.Swsr_regular.reader ~net ~client_id:101 ~inst:0 in
  run_fibers scn
    [
      ( "writer",
        fun () ->
          Harness.Workload.writer_job scn ~tally:(Harness.Workload.tally ())
            ~write:(Registers.Swsr_regular.write w)
            ~count:3 ~gap:(Harness.Workload.gap 0 5) () );
      ( "reader",
        fun () ->
          Harness.Workload.reader_job scn ~tally:(Harness.Workload.tally ())
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

(* Decoding a committed artifact and encoding it again gives back the
   file byte for byte: the two directions of each codec agree on every
   member the examples carry.  The chaos repros predate the crash
   members, which re-encode at their defaults after the committed
   config's last member. *)
let reencode j =
  let via decode encode =
    match decode j with
    | Ok x -> encode x
    | Error e -> Alcotest.failf "decode: %s" e
  in
  let schema = schema_of j in
  if String.equal schema Chaos.Recovery.schema then
    via Chaos.Recovery.of_json Chaos.Recovery.to_json
  else if String.equal schema Shard.Tier.schema then
    via Shard.Tier.of_json Shard.Tier.to_json
  else if String.equal schema Mc.Checker.cex_schema then
    via Mc.Checker.cex_of_json Mc.Checker.cex_to_json
  else if String.equal schema Chaos.Campaign.repro_schema then
    via Chaos.Campaign.repro_of_json Chaos.Campaign.repro_to_json
  else if String.equal schema Obs.Report.schema_version then
    via Obs.Report.of_json Obs.Report.to_json
  else if String.equal schema Lint.Report.baseline_schema_version then
    via Lint.Report.baseline_entries Lint.Report.baseline_to_json
  else if String.equal schema Lint.Report.domains_schema_version then
    via Lint.Report.domains_of_json Lint.Report.domains_to_json
  else Alcotest.failf "no codec for %s" schema

let pretty j = Obs.Json.to_string_pretty j ^ "\n"

let test_committed_reencode () =
  let reencoded = ref 0 in
  List.iter
    (fun path ->
      let text = read_file path in
      let j = parse path in
      let schema = schema_of j in
      if
        List.mem schema
          [ Chaos.Recovery.schema; Shard.Tier.schema; Mc.Checker.cex_schema ]
      then begin
        incr reencoded;
        Alcotest.(check string)
          (path ^ " re-encodes") text
          (pretty (reencode j))
      end)
    (committed ());
  check_int "recovery, shard and cex examples" 4 !reencoded;
  List.iter
    (fun name ->
      let path = Filename.concat "../examples/chaos" name in
      let j = parse path in
      let config =
        match Obs.Json.member "config" j with
        | Some (Obs.Json.Obj members) -> members
        | Some _ | None -> Alcotest.failf "%s: no config object" path
      in
      check_false (path ^ " predates the crash members")
        (List.mem_assoc "crashes" config || List.mem_assoc "crash_down" config);
      let defaulted =
        Obs.Json.Obj
          (config
          @ [ ("crashes", Obs.Json.Int 0); ("crash_down", Obs.Json.Int 250) ])
      in
      Alcotest.(check string)
        (path ^ " re-encodes with the crash defaults")
        (pretty (set [ "config" ] defaulted j))
        (pretty (reencode j)))
    [ "mwmr_mobile_roam_stuck.json"; "regular_collude_repro.json" ];
  let reports_and_lint =
    List.filter
      (fun path ->
        List.mem
          (schema_of (parse path))
          [
            Obs.Report.schema_version;
            Lint.Report.baseline_schema_version;
            Lint.Report.domains_schema_version;
          ])
      (committed ())
  in
  check_int "14 run reports, the lint baseline and inventory" 16
    (List.length reports_and_lint);
  List.iter
    (fun path ->
      Alcotest.(check string)
        (path ^ " re-encodes") (read_file path)
        (pretty (reencode (parse path))))
    reports_and_lint

(* A recovery artifact's schedule is the one its config schedules: a
   document whose schedule says otherwise is rejected, naming the
   member, and [experiments validate] exits 124 on it. *)
let test_doctored_recovery_schedule () =
  let recovery = parse "../examples/recovery/crash_burst_n9.json" in
  let config =
    match Chaos.Recovery.of_json recovery with
    | Ok r -> r.Chaos.Recovery.config
    | Error e -> Alcotest.failf "committed recovery report: %s" e
  in
  let doctored =
    match Chaos.Recovery.schedule config with
    | Chaos.Schedule.Crash c :: rest ->
      Chaos.Schedule.Crash { c with down_for = Some 1 } :: rest
    | _ -> Alcotest.fail "the committed schedule starts with a crash"
  in
  let j = set [ "schedule" ] (Chaos.Schedule.to_json doctored) recovery in
  (match Chaos.Recovery.of_json j with
  | Ok _ -> Alcotest.fail "a doctored schedule decodes"
  | Error e ->
    let needle = "recovery.schedule" in
    let n = String.length needle in
    let rec scan i =
      i + n <= String.length e
      && (String.equal (String.sub e i n) needle || scan (i + 1))
    in
    check_true ("the error names the member: " ^ e) (scan 0));
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      "stabreg-doctored-recovery.json"
  in
  Out_channel.with_open_bin path (fun oc -> output_string oc (pretty j));
  let code, _ = Test_cli.eval [ "validate"; path ] in
  Sys.remove path;
  check_int "validate exits 124" 124 code

(* Every event a run can trace survives encode, print, parse, decode and
   encode unchanged.  The corrupted run brings sends, receives, phases,
   operations and a fault; two lossy links bring drops with and without a
   message class ("msg": null) and a retuning mark: all eight kinds. *)
let lossy_link_events () =
  let rng = Sim.Rng.create 5 in
  let engine = Sim.Engine.create ~rng () in
  let recorded = Obs.Hub.record (Sim.Engine.hub engine) in
  let link ?classify () =
    Sim.Lossy_link.create ~engine ~rng:(Sim.Rng.split rng)
      ~delay:(Sim.Link.uniform (Sim.Rng.split rng) ~lo:1 ~hi:10)
      ~loss:0.5 ?classify ~name:"probe" ~deliver:ignore ()
  in
  let bare = link () in
  let labelled = link ~classify:(fun () -> Obs.Event.Ack_read) () in
  Sim.Lossy_link.set_loss bare 0.9;
  for _ = 1 to 20 do
    Sim.Lossy_link.send bare ();
    Sim.Lossy_link.send labelled ()
  done;
  Sim.Engine.run engine;
  recorded ()

let kind_of j =
  match Obs.Json.member "ev" j with
  | Some (Obs.Json.Str k) -> k
  | _ -> Alcotest.fail "event without a kind"

let test_events_round_trip () =
  let _, traced = Test_tracing.corrupted_run () in
  let events = traced @ lossy_link_events () in
  let lines =
    List.map (fun e -> Obs.Json.to_string (Obs.Event.to_json e)) events
  in
  check_true "a drop with no message class"
    (List.exists
       (function
         | Obs.Event.Drop { cls = None; _ } -> true
         | _ -> false)
       events);
  Alcotest.(check (list string))
    "all eight kinds"
    [
      "drop"; "fault"; "mark"; "op-invoke"; "op-return"; "phase"; "recv";
      "send";
    ]
    (List.sort_uniq String.compare
       (List.map (fun l -> kind_of (Obs.Json.parse_exn l)) lines));
  List.iter
    (fun line ->
      match Obs.Json.parse line with
      | Error e -> Alcotest.failf "%s: %s" line e
      | Ok j -> (
        match Obs.Event.of_json "event" j with
        | Error e -> Alcotest.failf "%s: %s" line e
        | Ok e ->
          Alcotest.(check string)
            "re-encodes" line
            (Obs.Json.to_string (Obs.Event.to_json e))))
    lines

let contains hay needle =
  let n = String.length needle in
  let rec scan i =
    i + n <= String.length hay
    && (String.equal (String.sub hay i n) needle || scan (i + 1))
  in
  scan 0

(* The checks decoding added: each document was accepted before, and its
   rejection names where the fault is. *)
let test_stricter_checks () =
  let rejected name want contents =
    match Exp_drivers.Artifacts.validate contents with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error e ->
      List.iter
        (fun w ->
          check_true (Printf.sprintf "%s: %S names %s" name e w) (contains e w))
        want
  in
  let header =
    Obs.Json.to_string (Obs.Tracefile.header ~experiment:"T" ~seed:3)
  in
  let span = Obs.Trace_ctx.none in
  let send =
    Obs.Event.to_json
      (Obs.Event.Send
         {
           time = 4; src = Obs.Event.Client 101; dst = Obs.Event.Server 3;
           cls = Obs.Event.Read; bytes = 12; span;
         })
  in
  let invoke =
    Obs.Event.to_json
      (Obs.Event.Op_invoke
         {
           time = 1; id = 1; proc = "reader"; reg = "swsr_regular"; op = `Read;
           span;
         })
  in
  let drop =
    Obs.Event.to_json (Obs.Event.Drop { time = 2; link = "l"; cls = None })
  in
  let trace name want event =
    rejected name ("line 2" :: want)
      (header ^ "\n" ^ Obs.Json.to_string event ^ "\n")
  in
  trace "a peer x3" [ "src"; "x3" ] (set [ "src" ] (Obs.Json.Str "x3") send);
  trace "a peer c07" [ "dst"; "c07" ] (set [ "dst" ] (Obs.Json.Str "c07") send);
  trace "an unknown message class" [ "msg"; "HELLO" ]
    (set [ "msg" ] (Obs.Json.Str "HELLO") send);
  trace "a drop of an unknown class" [ "msg"; "HELLO" ]
    (set [ "msg" ] (Obs.Json.Str "HELLO") drop);
  trace "an unknown operation" [ "op"; "append" ]
    (set [ "op" ] (Obs.Json.Str "append") invoke);
  let report = parse "../examples/runs/E1.json" in
  rejected "a run report whose extra is no object" [ "report.extra" ]
    (Obs.Json.to_string (set [ "extra" ] (Obs.Json.Int 3) report));
  let baseline = parse "../lint-baseline.json" in
  let entries =
    match Obs.Json.member "entries" baseline with
    | Some (Obs.Json.List (e :: _)) -> e
    | _ -> Alcotest.fail "the committed baseline has entries"
  in
  rejected "a baseline note that is no string" [ "baseline.entries[0].note" ]
    (Obs.Json.to_string
       (set [ "entries" ]
          (Obs.Json.List [ set [ "note" ] (Obs.Json.Int 3) entries ])
          baseline));
  let lint_report =
    Lint.Report.to_json
      (Lint.Report.make ~paths:[ "lib" ] ~files_scanned:0 ~suppressed:0
         ~baseline:[] [])
  in
  let rules =
    match Obs.Json.member "rules" lint_report with
    | Some (Obs.Json.List (r :: _)) -> r
    | _ -> Alcotest.fail "a lint report lists its rules"
  in
  let with_rule r = set [ "rules" ] (Obs.Json.List [ r ]) lint_report in
  rejected "a rule of unknown severity" [ "report.rules[0].severity" ]
    (Obs.Json.to_string
       (with_rule (set [ "severity" ] (Obs.Json.Str "fatal") rules)));
  rejected "a rule without a severity" [ "report.rules[0]"; "severity" ]
    (Obs.Json.to_string
       (with_rule
          (match rules with
           | Obs.Json.Obj ms ->
             Obs.Json.Obj (List.remove_assoc "severity" ms)
           | j -> j)))

(* Random valid configs, each wrapped in the smallest artifact that
   carries it, survive encode, print, parse and decode unchanged. *)
let gen_family = QCheck.Gen.oneofl Stab.[ Regular; Atomic; Mwmr ]

let gen_campaign_repro =
  QCheck.Gen.(
    let* family = gen_family in
    let* n = int_range 1 12 in
    let* f = int_range 0 4 in
    let* medium = oneofl Chaos.Campaign.[ Fifo; Lossy ] in
    let* initial =
      list_size (int_range 0 3)
        (pair (int_range 0 (n - 1)) Test_chaos.gen_strategy)
    in
    let count = int_range 0 5000 in
    let* writes = count and* reads = count and* gap_hi = count in
    let* injections = count and* roams = count and* roam_max = count in
    let* windows = count and* window_max = count in
    let* crashes = count and* crash_down = count in
    let* read_budget = int_range 1 100 in
    let* horizon = int_range 1 10_000 in
    let* seed = int_range 0 1_000_000 in
    let config =
      {
        Chaos.Campaign.family; n; f; medium; initial; writes; reads;
        read_budget; gap_hi; horizon; injections; roams; roam_max; windows;
        window_max; crashes; crash_down;
      }
    in
    return
      { Chaos.Campaign.seed; config; schedule = []; verdict = Stab.Clean })

let gen_recovery_report =
  QCheck.Gen.(
    let count = int_range 0 2000 in
    let* f = int_range 0 4 and* bursts = int_range 0 5 in
    let* crashed = int_range 0 3 and* first_at = count and* gap = count in
    let* writes = count and* reads = count and* gap_hi = count in
    let* n = int_range 1 12 in
    let* down_for = int_range 1 500 in
    let* read_budget = int_range 1 100 in
    let* retry = bool in
    let* seed = int_range 0 1_000_000 and* duration = count in
    let config =
      {
        Chaos.Recovery.n; f; bursts; crashed; down_for; first_at; gap;
        writes; reads; read_budget; gap_hi; retry;
      }
    in
    return
      {
        Chaos.Recovery.seed; config; bursts = [];
        write_ops = Registers.Outcome.zero_tally;
        read_ops = Registers.Outcome.zero_tally;
        duration; stuck = []; converged = false;
      })

let gen_tier_report =
  QCheck.Gen.(
    let* shards = int_range 1 6 in
    let* vnodes = int_range 1 32 in
    let* n = int_range 1 12 in
    let* f = int_range 0 3 in
    let* retry = bool in
    let* keys = int_range 1 200 in
    let* clients = int_range 1 40 in
    let* ops = int_range 0 1000 in
    let* theta = float_bound_inclusive 2.0 in
    let* write_ratio =
      oneof [ return 0.0; return 1.0; float_bound_inclusive 1.0 ]
    in
    let* mean_gap = int_range 0 10 in
    let* burst =
      opt
        (let* every = int_range 1 500 in
         let* len = int_range 0 every in
         let* factor = int_range 1 8 in
         return { Workload.Openloop.every; len; factor })
    in
    let crash =
      let* at = int_range 0 5000 in
      let* server = int_range 0 (n - 1) in
      let* down_for = opt (int_range 1 500) in
      return { Shard.Tier.at; server; down_for }
    in
    let* chaos =
      opt
        (let* target = int_range 0 (shards - 1) in
         let* injections = list_size (int_range 0 3) (int_range 0 5000) in
         let* crashes = list_size (int_range 0 3) crash in
         return { Shard.Tier.target; injections; crashes })
    in
    let* seed = int_range 0 1_000_000 in
    let workload =
      {
        Workload.Openloop.keys; clients; ops; theta; write_ratio; mean_gap;
        burst;
      }
    in
    let config = { Shard.Tier.shards; vnodes; n; f; retry; workload; chaos } in
    return
      {
        Shard.Tier.seed; config; key_owners = []; shards = []; ops = 0;
        writes = Registers.Outcome.zero_tally;
        reads = Registers.Outcome.zero_tally;
        duration = 0; isolated = true; clean = true;
      })

let gen_mc_config =
  QCheck.Gen.(
    let* family = gen_family in
    let* n = int_range 1 12 in
    let* f = int_range 0 3 in
    let* slots = shuffle_l (List.init n Fun.id) in
    let* nbyz = int_range 0 (min 3 n) in
    let* byz =
      flatten_l
        (List.map
           (fun slot ->
             let* k =
               oneof
                 [
                   return Mc.Config.Silent;
                   map2
                     (fun sn v -> Mc.Config.Collude { sn; v })
                     small_nat small_int;
                 ]
             in
             return (slot, k))
           (List.filteri (fun i _ -> i < nbyz) slots))
    in
    let server = int_range 0 (n - 1) in
    let item =
      oneof
        ([
           map3 (fun server sn v -> Mc.Config.Corrupt_server { server; sn; v })
             server small_nat small_int;
           map2
             (fun client round -> Mc.Config.Corrupt_round { client; round })
             (oneofl (Mc.Config.client_ids family)) small_nat;
           map (fun server -> Mc.Config.Crash_recover { server }) server;
         ]
        @
        if family = Stab.Atomic then
          [
            map2
              (fun pwsn v -> Mc.Config.Corrupt_reader { pwsn; v })
              small_nat small_int;
            map (fun sn -> Mc.Config.Corrupt_writer_sn sn) small_nat;
          ]
        else [])
    in
    let* menu = list_size (int_range 0 4) item in
    let* writes = int_range 0 3 in
    let* reads = int_range 0 3 in
    let* read_budget = int_range 1 16 in
    let* oracle = oneofl Mc.Config.[ Family_default; Atomic_oracle ] in
    return
      { Mc.Config.family; n; f; byz; writes; reads; read_budget; menu; oracle })

let round_trips name gen encode decode =
  qcheck
    (QCheck.Test.make ~count:200 ~name
       (QCheck.make gen ~print:(fun x -> Obs.Json.to_string (encode x)))
       (fun x ->
         match Obs.Json.parse (Obs.Json.to_string (encode x)) with
         | Error e -> QCheck.Test.fail_report e
         | Ok j -> (
           match decode j with
           | Ok y -> y = x
           | Error e -> QCheck.Test.fail_report e)))

let tests =
  [
    case "committed examples validate" test_committed_validate;
    case "fresh artifacts validate" test_fresh_artifacts_validate;
    case "unknown schemas rejected" test_unknown_schemas_rejected;
    case "unrunnable configs rejected" test_bad_configs_rejected;
    case "committed artifacts re-encode byte for byte" test_committed_reencode;
    case "a doctored recovery schedule is rejected"
      test_doctored_recovery_schedule;
    case "every traced event round-trips through the event decoder"
      test_events_round_trip;
    case "decoding rejects what the hand validators let through"
      test_stricter_checks;
    round_trips "campaign repro configs round-trip" gen_campaign_repro
      Chaos.Campaign.repro_to_json Chaos.Campaign.repro_of_json;
    round_trips "recovery configs round-trip" gen_recovery_report
      Chaos.Recovery.to_json Chaos.Recovery.of_json;
    round_trips "shard tier configs round-trip" gen_tier_report
      Shard.Tier.to_json Shard.Tier.of_json;
    round_trips "mc configs round-trip" gen_mc_config Mc.Config.to_json
      Mc.Config.of_json;
  ]
