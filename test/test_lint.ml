(* stablint: every rule fires at the expected places on known-bad
   fixtures, suppressions are honored, the repo's own lint run is clean
   against the committed baseline, and the report artifact is
   deterministic and schema-valid. *)

open Util

let finding_list = Alcotest.(check (list (pair string int)))

let rule_lines (r : Lint.Driver.file_result) =
  List.map
    (fun (f : Lint.Finding.t) -> (f.Lint.Finding.rule, f.Lint.Finding.line))
    r.Lint.Driver.findings

let fixture ?(rules = Lint.Rules.all) ~display path =
  Lint.Driver.lint_file ~rules ~display ("lint_fixtures/" ^ path)

(* --- per-rule fixtures ----------------------------------------------- *)

let test_r1_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r1 ] ~display:"lib/sim/r1_bad.ml"
      "tree/lib/sim/r1_bad.ml"
  in
  finding_list "R1 sites"
    [
      ("R1", 4); ("R1", 6); ("R1", 8); ("R1", 10); ("R1", 16); ("R1", 20);
      ("R1", 22); ("R1", 22);
    ]
    (rule_lines r);
  check_int "nothing suppressed" 0 r.Lint.Driver.suppressed

(* Wall-clock and real-time-wait identifiers, pinned line by line: a
   trace/profile module under lib/obs must not smuggle in real time.
   The injected-clock shape on the last line is the sanctioned escape
   hatch and must stay silent. *)
let test_r1_wallclock_fixture () =
  let r =
    fixture ~rules:[ Lint.Rules.r1 ] ~display:"lib/obs/profile_bad.ml"
      "r1_wallclock.ml"
  in
  finding_list "R1 wall-clock sites"
    [ ("R1", 4); ("R1", 6); ("R1", 8); ("R1", 10); ("R1", 12) ]
    (rule_lines r);
  check_int "nothing suppressed" 0 r.Lint.Driver.suppressed

let test_r2_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r2 ]
      ~display:"lib/registers/r2_bad.ml" "tree/lib/registers/r2_bad.ml"
  in
  finding_list "R2 sites"
    [ ("R2", 5); ("R2", 7); ("R2", 9); ("R2", 11); ("R2", 13) ]
    (rule_lines r)

(* Polymorphic max/min: flagged in the hot-path libraries too, where the
   compare checks stay off, and in neither test/ nor lib/obs.  A record
   pun reads a local, not the function. *)
let test_r2_extrema_fixture () =
  let lint display =
    rule_lines (fixture ~rules:[ Lint.Rules.r2 ] ~display "r2_extrema.ml")
  in
  let sites = [ ("R2", 4); ("R2", 6); ("R2", 8) ] in
  finding_list "R2 extrema in sim" sites (lint "lib/sim/r2_extrema.ml");
  finding_list "R2 extrema in registers" sites
    (lint "lib/registers/r2_extrema.ml");
  finding_list "test/ is out of extrema scope" [] (lint "test/r2_extrema.ml");
  finding_list "obs is out of extrema scope" [] (lint "lib/obs/r2_extrema.ml");
  let r = fixture ~rules:[ Lint.Rules.r2 ] ~display:"lib/sim/r2_bad.ml"
      "tree/lib/registers/r2_bad.ml"
  in
  finding_list "sim is out of compare scope" [] (rule_lines r)

let test_r3_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r3 ]
      ~display:"lib/registers/r3_bad.ml" "tree/lib/registers/r3_bad.ml"
  in
  finding_list "R3 sites" [ ("R3", 7); ("R3", 11) ] (rule_lines r)

let test_r4_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r4 ]
      ~display:"lib/registers/r4_bad.ml" "tree/lib/registers/r4_bad.ml"
  in
  finding_list "R4 sites"
    [ ("R4", 4); ("R4", 6); ("R4", 8); ("R4", 10); ("R4", 16) ]
    (rule_lines r)

let test_scoping () =
  (* The same bad code outside a scoped library yields nothing. *)
  let r = fixture ~display:"bin/r1_bad.ml" "tree/lib/sim/r1_bad.ml" in
  finding_list "bin is out of R1 scope" [] (rule_lines r);
  let r = fixture ~display:"lib/kv/r2_bad.ml" "tree/lib/registers/r2_bad.ml" in
  finding_list "kv is out of R2 scope" [] (rule_lines r)

(* --- suppression ------------------------------------------------------ *)

let test_allow_attribute () =
  let r = fixture ~display:"lib/sim/allow_attr.ml" "allow_attr.ml" in
  finding_list "only the unsuppressed site" [ ("R1", 7) ] (rule_lines r);
  check_int "suppressed count" 3 r.Lint.Driver.suppressed

let test_allow_pragma () =
  let r = fixture ~display:"lib/sim/allow_pragma.ml" "allow_pragma.ml" in
  finding_list "pragma covers its line only" [ ("R1", 5) ] (rule_lines r);
  check_int "suppressed count" 1 r.Lint.Driver.suppressed

let test_file_allow () =
  let r = fixture ~display:"lib/sim/file_allow.ml" "file_allow.ml" in
  finding_list "other rules still fire" [ ("R4", 9) ] (rule_lines r);
  check_int "suppressed count" 2 r.Lint.Driver.suppressed

let test_multi_rule_payload () =
  (* [@@lint.allow "R1" "R4"] — several rule ids in one payload — must
     suppress both rules on the binding. *)
  let r = fixture ~display:"lib/sim/multi_allow.ml" "multi_allow.ml" in
  finding_list "only the unsuppressed trailing sites"
    [ ("R1", 7); ("R4", 9) ]
    (rule_lines r);
  check_int "suppressed count" 2 r.Lint.Driver.suppressed

let test_final_line_pragma () =
  (* The pragma sits on the file's last line, with no trailing newline. *)
  let r = fixture ~display:"lib/sim/final_pragma.ml" "final_pragma.ml" in
  finding_list "final-line site suppressed" [ ("R1", 4) ] (rule_lines r);
  check_int "suppressed count" 1 r.Lint.Driver.suppressed

let test_unused_suppression_reported () =
  let r = fixture ~display:"lib/sim/unused_allow.ml" "unused_allow.ml" in
  finding_list "stale suppression surfaces as SUPPRESS"
    [ (Lint.Driver.suppress_rule_id, 4); ("R1", 6) ]
    (rule_lines r);
  check_int "nothing actually suppressed" 0 r.Lint.Driver.suppressed;
  match r.Lint.Driver.findings with
  | f :: _ ->
    check_true "SUPPRESS is a warning"
      (f.Lint.Finding.severity = Lint.Finding.Warning)
  | [] -> Alcotest.fail "expected a SUPPRESS finding"

(* --- tree scan (R5 + aggregation) ------------------------------------ *)

let tree_scan () =
  Lint.Driver.scan ~root:"lint_fixtures/tree" ~paths:[ "lib" ] ()

let test_tree_scan () =
  let s = tree_scan () in
  check_int "files" 5 s.Lint.Driver.files_scanned;
  let by_rule id =
    List.length
      (List.filter
         (fun (f : Lint.Finding.t) -> String.equal f.Lint.Finding.rule id)
         s.Lint.Driver.findings)
  in
  check_int "R1" 8 (by_rule "R1");
  check_int "R2" 5 (by_rule "R2");
  check_int "R3" 2 (by_rule "R3");
  check_int "R4" 5 (by_rule "R4");
  check_int "R5" 1 (by_rule "R5");
  let r5 =
    List.find
      (fun (f : Lint.Finding.t) -> String.equal f.Lint.Finding.rule "R5")
      s.Lint.Driver.findings
  in
  Alcotest.(check string)
    "R5 points at the orphan" "lib/history/orphan.ml" r5.Lint.Finding.file

let test_parse_failure_is_a_finding () =
  let r =
    Lint.Driver.lint_source ~rules:Lint.Rules.all ~scope:(Lint.Rule.Lib "sim")
      ~file:"lib/sim/broken.ml" "let = ;;"
  in
  match r.Lint.Driver.findings with
  | [ f ] ->
    Alcotest.(check string) "rule" Lint.Driver.parse_rule_id f.Lint.Finding.rule
  | fs -> Alcotest.failf "expected one PARSE finding, got %d" (List.length fs)

(* --- report artifact -------------------------------------------------- *)

let report_of_scan s =
  Lint.Report.make ~paths:[ "lib" ]
    ~files_scanned:s.Lint.Driver.files_scanned
    ~suppressed:s.Lint.Driver.suppressed ~baseline:[] s.Lint.Driver.findings

let test_report_roundtrip_and_schema () =
  let rendered = Lint.Report.render (report_of_scan (tree_scan ())) in
  match Obs.Json.parse rendered with
  | Error e -> Alcotest.failf "report does not reparse: %s" e
  | Ok j -> (
    (match Lint.Report.validate j with
     | Ok () -> ()
     | Error e -> Alcotest.failf "report does not validate: %s" e);
    match Exp_drivers.Artifacts.validate rendered with
    | Ok schema ->
      Alcotest.(check string) "validated as" Lint.Report.schema_version schema
    | Error e -> Alcotest.failf "experiments validate rejects a report: %s" e)

let test_report_deterministic () =
  let a = Lint.Report.render (report_of_scan (tree_scan ())) in
  let b = Lint.Report.render (report_of_scan (tree_scan ())) in
  Alcotest.(check string) "byte-identical across runs" a b

let test_validate_rejects_junk () =
  let bad = Obs.Json.Obj [ ("schema", Obs.Json.Str "stabreg/other/v1") ] in
  check_true "wrong schema rejected"
    (Result.is_error (Exp_drivers.Artifacts.validate (Obs.Json.to_string bad)));
  check_true "missing fields rejected"
    (Result.is_error
       (Lint.Report.validate
          (Obs.Json.Obj
             [ ("schema", Obs.Json.Str Lint.Report.schema_version) ])))

let test_baseline_partition () =
  let s = tree_scan () in
  let baseline_json = Lint.Report.baseline_of_findings s.Lint.Driver.findings in
  (match Lint.Report.validate_baseline baseline_json with
   | Ok () -> ()
   | Error e -> Alcotest.failf "baseline does not validate: %s" e);
  let entries =
    match Lint.Report.baseline_entries baseline_json with
    | Ok e -> e
    | Error e -> Alcotest.failf "baseline reparse: %s" e
  in
  let report =
    Lint.Report.make ~paths:[ "lib" ]
      ~files_scanned:s.Lint.Driver.files_scanned
      ~suppressed:s.Lint.Driver.suppressed ~baseline:entries
      s.Lint.Driver.findings
  in
  check_int "everything baselined -> no new findings" 0
    (List.length report.Lint.Report.fresh);
  check_int "all findings accounted for"
    (List.length s.Lint.Driver.findings)
    (List.length report.Lint.Report.baselined);
  check_int "no stale entries" 0 report.Lint.Report.stale_baseline

let test_baseline_matches_by_message () =
  let finding line msg =
    Lint.Finding.v ~file:"test/t.ml" ~line ~col:0 ~rule:"R2"
      ~severity:Lint.Finding.Error msg
  in
  let entry line note =
    { Lint.Report.file = "test/t.ml"; rule = "R2"; line; note }
  in
  let make baseline findings =
    Lint.Report.make ~paths:[ "test" ] ~files_scanned:1 ~suppressed:0
      ~baseline findings
  in
  let moved = make [ entry 89 "eq" ] [ finding 80 "eq" ] in
  check_int "a moved finding stays baselined" 0
    (List.length moved.Lint.Report.fresh);
  check_int "and its entry is not stale" 0 moved.Lint.Report.stale_baseline;
  let extra = make [ entry 89 "eq" ] [ finding 80 "eq"; finding 90 "eq" ] in
  check_int "one entry absorbs one finding" 1
    (List.length extra.Lint.Report.fresh);
  let other = make [ entry 89 "eq" ] [ finding 89 "neq" ] in
  check_int "another message at the same line is new" 1
    (List.length other.Lint.Report.fresh);
  check_int "and leaves the entry stale" 1 other.Lint.Report.stale_baseline;
  let twice = make [ entry 1 "eq"; entry 2 "eq" ] [ finding 5 "eq" ] in
  check_int "an unused duplicate entry is stale" 1
    twice.Lint.Report.stale_baseline

(* --- the repo's own lint run ------------------------------------------ *)

let test_self_lint_matches_baseline () =
  let s =
    Lint.Driver.scan ~root:".."
      ~paths:[ "lib"; "bin"; "test"; "examples" ] ()
  in
  check_true "scanned the real tree" (s.Lint.Driver.files_scanned > 100);
  let entries =
    match
      Exp_drivers.Common.read_artifact "../lint-baseline.json"
        Lint.Report.baseline_entries
    with
    | Ok e -> e
    | Error e -> Alcotest.failf "committed baseline unreadable: %s" e
  in
  let report =
    Lint.Report.make
      ~paths:[ "lib"; "bin"; "test"; "examples" ]
      ~files_scanned:s.Lint.Driver.files_scanned
      ~suppressed:s.Lint.Driver.suppressed ~baseline:entries
      s.Lint.Driver.findings
  in
  (match report.Lint.Report.fresh with
   | [] -> ()
   | fs ->
     Alcotest.failf "lint findings outside the committed baseline:\n%s"
       (String.concat "\n" (List.map Lint.Finding.to_string fs)));
  check_int "no stale baseline entries" 0 report.Lint.Report.stale_baseline

let tests =
  [
    case "R1 no-nondeterminism fixture" test_r1_fixture;
    case "R1 wall-clock fixture (trace modules)" test_r1_wallclock_fixture;
    case "R2 no-polymorphic-compare fixture" test_r2_fixture;
    case "R2 polymorphic max/min fixture" test_r2_extrema_fixture;
    case "R3 no-wildcard-message-match fixture" test_r3_fixture;
    case "R4 no-partial-functions fixture" test_r4_fixture;
    case "rules are library-scoped" test_scoping;
    case "[@@lint.allow] suppresses" test_allow_attribute;
    case "line pragma suppresses" test_allow_pragma;
    case "[@@@lint.allow] covers the file" test_file_allow;
    case "several rule ids in one payload" test_multi_rule_payload;
    case "pragma on the file's final line" test_final_line_pragma;
    case "unused suppression reported" test_unused_suppression_reported;
    case "tree scan incl. mli coverage" test_tree_scan;
    case "parse failure is a finding" test_parse_failure_is_a_finding;
    case "report reparses and validates" test_report_roundtrip_and_schema;
    case "report is deterministic" test_report_deterministic;
    case "validator rejects junk" test_validate_rejects_junk;
    case "baseline accepts and partitions" test_baseline_partition;
    case "baseline matches by message, counted per triple"
      test_baseline_matches_by_message;
    case "self-lint matches committed baseline" test_self_lint_matches_baseline;
  ]
