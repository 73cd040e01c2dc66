module Json = Obs.Json

let schema_version = "stabreg/lint-report/v1"

let baseline_schema_version = "stabreg/lint-baseline/v1"

let domains_schema_version = "stabreg/lint-domains/v1"

type entry = { file : string; rule : string; line : int }

let entry_compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> String.compare a.rule b.rule
    | c -> c)
  | c -> c

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

let finding_json ~baselined f =
  match Finding.to_json f with
  | Json.Obj fields -> Json.Obj (fields @ [ ("baselined", Json.Bool baselined) ])
  | j -> j

let rule_catalog_json t =
  let count rule_id =
    List.length
      (List.filter
         (fun (f : Finding.t) -> String.equal f.Finding.rule rule_id)
         (t.fresh @ t.baselined))
  in
  Json.List
    (List.map
       (fun (r : Rule.t) ->
         Json.Obj
           [
             ("id", Json.Str r.Rule.id);
             ("name", Json.Str r.Rule.name);
             ("summary", Json.Str r.Rule.summary);
             ("severity", Json.Str (Finding.severity_to_string r.Rule.severity));
             ("findings", Json.Int (count r.Rule.id));
           ])
       Rules.all)

let to_json t =
  let all =
    List.sort Finding.compare (t.fresh @ t.baselined)
    |> List.map (fun f ->
           finding_json
             ~baselined:(List.exists (fun g -> g == f) t.baselined)
             f)
  in
  Json.Obj
    [
      ("schema", Json.Str schema_version);
      ("tool", Json.Str "stablint");
      ("paths", Json.List (List.map (fun p -> Json.Str p) t.paths));
      ("files_scanned", Json.Int t.files_scanned);
      ( "summary",
        Json.Obj
          [
            ("new", Json.Int (List.length t.fresh));
            ("baselined", Json.Int (List.length t.baselined));
            ("suppressed", Json.Int t.suppressed);
            ("stale_baseline", Json.Int t.stale_baseline);
          ] );
      ("rules", rule_catalog_json t);
      ("findings", Json.List all);
    ]

let render t = Json.to_string_pretty (to_json t) ^ "\n"

(* --- validation ------------------------------------------------------ *)

let int_members ctx keys j =
  let open Json in
  List.fold_left
    (fun acc key ->
      let* () = acc in
      let* _ = int_field ctx key j in
      Ok ())
    (Ok ()) keys

let validate j =
  let open Json in
  let ctx = "report" in
  let* () = expect_schema ctx schema_version j in
  let* _tool = str_field ctx "tool" j in
  let* _paths = list_field ctx "paths" as_string j in
  let* _files = int_field ctx "files_scanned" j in
  let* summary = field ctx "summary" j in
  let* () =
    int_members "summary" [ "new"; "baselined"; "suppressed"; "stale_baseline" ]
      summary
  in
  let* _rules =
    list_field ctx "rules"
      (fun ctx r ->
        let* _id = str_field ctx "id" r in
        let* _name = str_field ctx "name" r in
        let* _summary = str_field ctx "summary" r in
        int_field ctx "findings" r)
      j
  in
  let* _findings =
    list_field ctx "findings"
      (fun ctx f ->
        let* _ = Finding.of_json ctx f in
        bool_field ctx "baselined" f)
      j
  in
  Ok ()

(* --- baseline -------------------------------------------------------- *)

let baseline_of_findings findings =
  let entries =
    findings
    |> List.map (fun (f : Finding.t) ->
           Json.Obj
             [
               ("file", Json.Str f.Finding.file);
               ("rule", Json.Str f.Finding.rule);
               ("line", Json.Int f.Finding.line);
               ("note", Json.Str f.Finding.message);
             ])
  in
  Json.Obj
    [
      ("schema", Json.Str baseline_schema_version);
      ("entries", Json.List entries);
    ]

let render_baseline j = Json.to_string_pretty j ^ "\n"

let baseline_entries j =
  let open Json in
  let ctx = "baseline" in
  let* () = expect_schema ctx baseline_schema_version j in
  let* entries =
    list_field ctx "entries"
      (fun ctx e ->
        let* file = str_field ctx "file" e in
        let* rule = str_field ctx "rule" e in
        let* line = int_field ctx "line" e in
        Ok { file; rule; line })
      j
  in
  Ok (List.sort entry_compare entries)

let validate_baseline j = Result.map ignore (baseline_entries j)

(* --- shared-state inventory (lint-domains/v1) ------------------------ *)

let verdict_fields = function
  | Escape.Local -> [ ("verdict", Json.Str "local") ]
  | Escape.Escapes_sync line ->
    [ ("verdict", Json.Str "escapes-sync"); ("capture_line", Json.Int line) ]
  | Escape.Escapes_guarded (line, reason) ->
    [
      ("verdict", Json.Str "escapes-guarded");
      ("capture_line", Json.Int line);
      ("reason", Json.Str reason);
    ]
  | Escape.Escapes_unsync line ->
    [ ("verdict", Json.Str "escapes-unsync"); ("capture_line", Json.Int line) ]

let entry_json (e : Escape.entry) =
  Json.Obj
    ([
       ("name", Json.Str e.Escape.value.Escape.name);
       ("kind", Json.Str (Escape.kind_to_string e.Escape.value.Escape.kind));
       ("line", Json.Int e.Escape.value.Escape.line);
       ("col", Json.Int e.Escape.value.Escape.col);
     ]
    @ verdict_fields e.Escape.verdict)

let module_json (m : Escape.module_inventory) =
  Json.Obj
    [
      ("file", Json.Str m.Escape.file);
      ("module", Json.Str m.Escape.module_name);
      ( "boundary_lines",
        Json.List (List.map (fun l -> Json.Int l) m.Escape.boundary_lines) );
      ("values", Json.List (List.map entry_json m.Escape.entries));
    ]

let count_verdict pred inventory =
  List.fold_left
    (fun n (m : Escape.module_inventory) ->
      n
      + List.length
          (List.filter (fun (e : Escape.entry) -> pred e.Escape.verdict)
             m.Escape.entries))
    0 inventory

let domains_to_json ~paths inventory =
  let values =
    List.fold_left
      (fun n (m : Escape.module_inventory) ->
        n + List.length m.Escape.entries)
      0 inventory
  in
  Json.Obj
    [
      ("schema", Json.Str domains_schema_version);
      ("tool", Json.Str "stablint");
      ("paths", Json.List (List.map (fun p -> Json.Str p) paths));
      ( "summary",
        Json.Obj
          [
            ("modules", Json.Int (List.length inventory));
            ("values", Json.Int values);
            ( "local",
              Json.Int
                (count_verdict
                   (function Escape.Local -> true | _ -> false)
                   inventory) );
            ( "escapes_sync",
              Json.Int
                (count_verdict
                   (function Escape.Escapes_sync _ -> true | _ -> false)
                   inventory) );
            ( "escapes_guarded",
              Json.Int
                (count_verdict
                   (function Escape.Escapes_guarded _ -> true | _ -> false)
                   inventory) );
            ( "escapes_unsync",
              Json.Int
                (count_verdict
                   (function Escape.Escapes_unsync _ -> true | _ -> false)
                   inventory) );
          ] );
      ("modules", Json.List (List.map module_json inventory));
    ]

let render_domains ~paths inventory =
  Json.to_string_pretty (domains_to_json ~paths inventory) ^ "\n"

let validate_domains j =
  let open Json in
  let ctx = "domains" in
  let* () = expect_schema ctx domains_schema_version j in
  let* _tool = str_field ctx "tool" j in
  let* _paths = list_field ctx "paths" as_string j in
  let* summary = field ctx "summary" j in
  let* () =
    int_members "summary"
      [
        "modules";
        "values";
        "local";
        "escapes_sync";
        "escapes_guarded";
        "escapes_unsync";
      ]
      summary
  in
  let value ctx v =
    let* _name = str_field ctx "name" v in
    let* _kind = str_field ctx "kind" v in
    let* _line = int_field ctx "line" v in
    let* verdict = str_field ctx "verdict" v in
    match verdict with
    | "local" -> Ok ()
    | "escapes-sync" | "escapes-unsync" ->
      let* _ = int_field ctx "capture_line" v in
      Ok ()
    | "escapes-guarded" ->
      let* _ = int_field ctx "capture_line" v in
      let* _reason = str_field ctx "reason" v in
      Ok ()
    | other -> Error (Printf.sprintf "%s: unknown verdict %S" ctx other)
  in
  let* _modules =
    list_field ctx "modules"
      (fun ctx m ->
        let* _file = str_field ctx "file" m in
        let* _mod = str_field ctx "module" m in
        let* _lines = list_field ctx "boundary_lines" as_int m in
        list_field ctx "values" value m)
      j
  in
  Ok ()

let validate_any j =
  let open Json in
  let* schema = str_field "artifact" "schema" j in
  if String.equal schema schema_version then validate j
  else if String.equal schema baseline_schema_version then validate_baseline j
  else if String.equal schema domains_schema_version then validate_domains j
  else
    Error
      (Printf.sprintf "unknown schema %S (expected %S, %S or %S)" schema
         schema_version baseline_schema_version domains_schema_version)
