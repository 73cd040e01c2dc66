module Json = Obs.Json

let schema_version = "stabreg/lint-report/v1"

let baseline_schema_version = "stabreg/lint-baseline/v1"

let domains_schema_version = "stabreg/lint-domains/v2"

let tool = "stablint"

type entry = { file : string; rule : string; line : int; note : string }

let entry_matches e (f : Finding.t) =
  String.equal e.file f.Finding.file
  && String.equal e.rule f.Finding.rule
  && e.line = f.Finding.line

type t = {
  paths : string list;
  files_scanned : int;
  suppressed : int;
  stale_baseline : int;
  fresh : Finding.t list;
  baselined : Finding.t list;
}

let make ~paths ~files_scanned ~suppressed ~baseline findings =
  let baselined, fresh =
    List.partition
      (fun f -> List.exists (fun e -> entry_matches e f) baseline)
      findings
  in
  let stale_baseline =
    List.length
      (List.filter
         (fun e -> not (List.exists (fun f -> entry_matches e f) findings))
         baseline)
  in
  { paths; files_scanned; suppressed; stale_baseline; fresh; baselined }

(* --- report serialization ------------------------------------------- *)

(* A rule as the report's catalog lists it. *)
type rule_row = {
  id : string;
  name : string;
  summary : string;
  severity : Finding.severity;
  findings : int;
}

let rule_rows t =
  let all = t.fresh @ t.baselined in
  List.map
    (fun (r : Rule.t) ->
      let mine (f : Finding.t) = String.equal f.Finding.rule r.Rule.id in
      {
        id = r.Rule.id;
        name = r.Rule.name;
        summary = r.Rule.summary;
        severity = r.Rule.severity;
        findings = List.length (List.filter mine all);
      })
    Rules.all

let rule_codec () =
  Json.(
    record (fun id name summary severity findings ->
        { id; name; summary; severity; findings })
    |> field "id" string (fun r -> r.id)
    |> field "name" string (fun r -> r.name)
    |> field "summary" string (fun r -> r.summary)
    |> field "severity"
         (enum Finding.severity_to_string Finding.severity_of_string)
         (fun r -> r.severity)
    |> field "findings" int (fun r -> r.findings)
    |> seal)

(* A listed finding: its own members, then whether the baseline carries
   it. *)
let listed_codec () =
  let open Json in
  let finding = Finding.codec () in
  let flag = record Fun.id |> field "baselined" bool Fun.id |> seal in
  codec
    (fun (f, b) -> Obj (members finding f @ members flag b))
    (fun ctx j ->
      let* f = decode finding ctx j in
      Result.map (fun b -> (f, b)) (decode flag ctx j))

(* The summary counts.  Decoding gives a report holding only the two
   counts it stores; [codec] fills in the rest. *)
let summary_codec () =
  Json.(
    record (fun (_ : int) (_ : int) suppressed stale_baseline ->
        let t = make ~paths:[] ~files_scanned:0 ~suppressed ~baseline:[] [] in
        { t with stale_baseline })
    |> field "new" int (fun t -> List.length t.fresh)
    |> field "baselined" int (fun t -> List.length t.baselined)
    |> field "suppressed" int (fun t -> t.suppressed)
    |> field "stale_baseline" int (fun t -> t.stale_baseline)
    |> seal)

let codec () =
  let listed t =
    List.sort Finding.compare (t.fresh @ t.baselined)
    |> List.map (fun f -> (f, List.exists (fun g -> g == f) t.baselined))
  in
  Json.(
    record
      (fun (_ : string) paths files_scanned summary (_ : rule_row list) rows ->
        let baselined, fresh = List.partition snd rows in
        {
          summary with
          paths;
          files_scanned;
          fresh = List.map fst fresh;
          baselined = List.map fst baselined;
        })
    |> field "tool" string (fun _ -> tool)
    |> field "paths" (list string) (fun t -> t.paths)
    |> field "files_scanned" int (fun t -> t.files_scanned)
    |> field "summary" (summary_codec ()) Fun.id
    |> field "rules" (list (rule_codec ())) rule_rows
    |> field "findings" (list (listed_codec ())) listed
    |> seal |> with_schema schema_version)

let to_json t = Json.encode (codec ()) t

let of_json j = Json.decode (codec ()) "report" j

let render t = Json.to_string_pretty (to_json t) ^ "\n"

let validate j = Result.map ignore (of_json j)

(* --- baseline -------------------------------------------------------- *)

let baseline_codec () =
  Json.(
    record Fun.id
    |> field "entries"
         (list
            (record (fun file rule line note -> { file; rule; line; note })
            |> field "file" string (fun e -> e.file)
            |> field "rule" string (fun e -> e.rule)
            |> field "line" int (fun e -> e.line)
            |> field ~default:"" "note" string (fun e -> e.note)
            |> seal))
         Fun.id
    |> seal
    |> with_schema baseline_schema_version)

let baseline_to_json entries = Json.encode (baseline_codec ()) entries

let baseline_of_findings findings =
  baseline_to_json
    (List.map
       (fun (f : Finding.t) ->
         {
           file = f.Finding.file;
           rule = f.Finding.rule;
           line = f.Finding.line;
           note = f.Finding.message;
         })
       findings)

let render_baseline j = Json.to_string_pretty j ^ "\n"

let baseline_entries j = Json.decode (baseline_codec ()) "baseline" j

let validate_baseline j = Result.map ignore (baseline_entries j)

(* --- shared-state inventory (lint-domains/v2) ------------------------ *)

(* Only the values that are not [local] are listed, keyed by module and
   binding with no source positions: the inventory moves when shared
   state does, not when the code around it does.  The counts of every
   verdict stay in the summary. *)
type shared = {
  module_name : string;
  binding : string;
  file : string;
  kind : string;
  verdict : string;
  reason : string option;  (* exactly when escapes-guarded *)
}

type counts = {
  modules : int;
  values : int;
  local : int;
  escapes_sync : int;
  escapes_guarded : int;
  escapes_unsync : int;
}

type domains = { scanned : string list; counts : counts; shared : shared list }

let verdict_name = function
  | Escape.Local -> "local"
  | Escape.Escapes_sync _ -> "escapes-sync"
  | Escape.Escapes_guarded _ -> "escapes-guarded"
  | Escape.Escapes_unsync _ -> "escapes-unsync"

let inventory ~paths inventory =
  let values =
    List.concat_map
      (fun (m : Escape.module_inventory) ->
        List.map
          (fun (e : Escape.entry) ->
            {
              module_name = m.Escape.module_name;
              binding = e.Escape.value.Escape.name;
              file = m.Escape.file;
              kind = Escape.kind_to_string e.Escape.value.Escape.kind;
              verdict = verdict_name e.Escape.verdict;
              reason =
                (match e.Escape.verdict with
                | Escape.Escapes_guarded (_, reason) -> Some reason
                | Escape.Local | Escape.Escapes_sync _ | Escape.Escapes_unsync _
                  ->
                  None);
            })
          m.Escape.entries)
      inventory
  in
  let count verdict =
    List.length (List.filter (fun v -> String.equal v.verdict verdict) values)
  in
  {
    scanned = paths;
    counts =
      {
        modules = List.length inventory;
        values = List.length values;
        local = count "local";
        escapes_sync = count "escapes-sync";
        escapes_guarded = count "escapes-guarded";
        escapes_unsync = count "escapes-unsync";
      };
    shared = List.filter (fun v -> not (String.equal v.verdict "local")) values;
  }

(* A listed value: the members every verdict has, then the reason of a
   guarded one.  The verdict is a tag, so this is a hand-written pair. *)
let shared_codec () =
  let open Json in
  let head =
    record (fun module_name binding file kind verdict ->
        { module_name; binding; file; kind; verdict; reason = None })
    |> field "module" string (fun s -> s.module_name)
    |> field "binding" string (fun s -> s.binding)
    |> field "file" string (fun s -> s.file)
    |> field "kind" string (fun s -> s.kind)
    |> field "verdict" string (fun s -> s.verdict)
    |> seal
  in
  let reason = record Fun.id |> field "reason" string Fun.id |> seal in
  codec
    (fun s ->
      let reason = Option.fold ~none:[] ~some:(members reason) s.reason in
      Obj (members head s @ reason))
    (fun ctx j ->
      let* s = decode head ctx j in
      match s.verdict with
      | "escapes-sync" | "escapes-unsync" -> Ok s
      | "escapes-guarded" ->
        Result.map (fun r -> { s with reason = Some r }) (decode reason ctx j)
      | other -> Error (Printf.sprintf "%s: unlisted verdict %S" ctx other))

let domains_codec () =
  let open Json in
  let counts =
    record
      (fun modules values local escapes_sync escapes_guarded escapes_unsync ->
        {
          modules;
          values;
          local;
          escapes_sync;
          escapes_guarded;
          escapes_unsync;
        })
    |> field "modules" int (fun c -> c.modules)
    |> field "values" int (fun c -> c.values)
    |> field "local" int (fun c -> c.local)
    |> field "escapes_sync" int (fun c -> c.escapes_sync)
    |> field "escapes_guarded" int (fun c -> c.escapes_guarded)
    |> field "escapes_unsync" int (fun c -> c.escapes_unsync)
    |> seal
  in
  record (fun (_ : string) scanned counts shared -> { scanned; counts; shared })
  |> field "tool" string (fun _ -> tool)
  |> field "paths" (list string) (fun d -> d.scanned)
  |> field "summary" counts (fun d -> d.counts)
  |> field "shared" (list (shared_codec ())) (fun d -> d.shared)
  |> seal
  |> with_schema domains_schema_version

let domains_to_json d = Json.encode (domains_codec ()) d

let domains_of_json j = Json.decode (domains_codec ()) "domains" j

let render_domains ~paths inv =
  Json.to_string_pretty (domains_to_json (inventory ~paths inv)) ^ "\n"

let validate_domains j = Result.map ignore (domains_of_json j)
