module Json = Obs.Json

let schema_version = "stabreg/lint-report/v1"

let baseline_schema_version = "stabreg/lint-baseline/v1"

let domains_schema_version = "stabreg/lint-domains/v2"

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
  let* summary = required ctx "summary" j in
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

(* --- shared-state inventory (lint-domains/v2) ------------------------ *)

(* Only the values that are not [local] are listed, keyed by module and
   binding with no source positions: the inventory moves when shared
   state does, not when the code around it does.  The counts of every
   verdict stay in the summary. *)
let shared_json (m : Escape.module_inventory) =
  List.filter_map
    (fun (e : Escape.entry) ->
      let listed verdict extra =
        Some
          (Json.Obj
             ([
                ("module", Json.Str m.Escape.module_name);
                ("binding", Json.Str e.Escape.value.Escape.name);
                ("file", Json.Str m.Escape.file);
                ( "kind",
                  Json.Str (Escape.kind_to_string e.Escape.value.Escape.kind) );
                ("verdict", Json.Str verdict);
              ]
             @ extra))
      in
      match e.Escape.verdict with
      | Escape.Local -> None
      | Escape.Escapes_sync _ -> listed "escapes-sync" []
      | Escape.Escapes_guarded (_, reason) ->
        listed "escapes-guarded" [ ("reason", Json.Str reason) ]
      | Escape.Escapes_unsync _ -> listed "escapes-unsync" [])
    m.Escape.entries

let domains_to_json ~paths inventory =
  let verdicts =
    List.concat_map
      (fun (m : Escape.module_inventory) ->
        List.map (fun (e : Escape.entry) -> e.Escape.verdict) m.Escape.entries)
      inventory
  in
  let count pred = Json.Int (List.length (List.filter pred verdicts)) in
  Json.Obj
    [
      ("schema", Json.Str domains_schema_version);
      ("tool", Json.Str "stablint");
      ("paths", Json.List (List.map (fun p -> Json.Str p) paths));
      ( "summary",
        Json.Obj
          [
            ("modules", Json.Int (List.length inventory));
            ("values", Json.Int (List.length verdicts));
            ("local", count (function Escape.Local -> true | _ -> false));
            ( "escapes_sync",
              count (function Escape.Escapes_sync _ -> true | _ -> false) );
            ( "escapes_guarded",
              count (function Escape.Escapes_guarded _ -> true | _ -> false) );
            ( "escapes_unsync",
              count (function Escape.Escapes_unsync _ -> true | _ -> false) );
          ] );
      ("shared", Json.List (List.concat_map shared_json inventory));
    ]

let render_domains ~paths inventory =
  Json.to_string_pretty (domains_to_json ~paths inventory) ^ "\n"

let validate_domains j =
  let open Json in
  let ctx = "domains" in
  let* () = expect_schema ctx domains_schema_version j in
  let* _tool = str_field ctx "tool" j in
  let* _paths = list_field ctx "paths" as_string j in
  let* summary = required ctx "summary" j in
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
    let* _module = str_field ctx "module" v in
    let* _binding = str_field ctx "binding" v in
    let* _file = str_field ctx "file" v in
    let* _kind = str_field ctx "kind" v in
    let* verdict = str_field ctx "verdict" v in
    match verdict with
    | "escapes-sync" | "escapes-unsync" -> Ok ()
    | "escapes-guarded" ->
      let* _reason = str_field ctx "reason" v in
      Ok ()
    | other -> Error (Printf.sprintf "%s: unlisted verdict %S" ctx other)
  in
  let* _shared = list_field ctx "shared" value j in
  Ok ()
