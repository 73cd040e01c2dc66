(* Artifact validation for [experiments validate]: one row per stabreg/*
   schema, picked by the document's own "schema" member.  A new schema
   is one more row. *)

let decodes decode j = Result.map ignore (decode j)

let schemas : (string * (Obs.Json.t -> (unit, string) result)) list =
  [
    (Obs.Report.schema_version, decodes Obs.Report.of_json);
    (* A document that parses whole is a header-only trace. *)
    (Obs.Tracefile.schema_version, decodes Obs.Tracefile.header_of_json);
    (Obs.Profile.schema_version, decodes Obs.Profile.of_json);
    (Mc.Checker.cex_schema, decodes Mc.Checker.cex_of_json);
    (Mc.Checker.guide_schema, decodes Mc.Checker.guide_of_json);
    (Chaos.Campaign.repro_schema, decodes Chaos.Campaign.repro_of_json);
    (Chaos.Recovery.schema, decodes Chaos.Recovery.of_json);
    (Shard.Tier.schema, decodes Shard.Tier.of_json);
    (Lint.Report.schema_version, decodes Lint.Report.of_json);
    (Lint.Report.baseline_schema_version, decodes Lint.Report.baseline_entries);
    (Lint.Report.domains_schema_version, decodes Lint.Report.domains_of_json);
  ]

(* Validate a file's contents; [Ok schema] names what it was checked
   against.  Files that are not one JSON document are tried as JSONL
   traces, and schema-less documents with "traceEvents" as Chrome
   exports. *)
let validate contents =
  match Obs.Json.parse contents with
  | Error _ ->
    Result.map
      (fun () -> Obs.Tracefile.schema_version)
      (Obs.Tracefile.validate contents)
  | Ok j -> (
    match (Obs.Json.member "schema" j, Obs.Json.member "traceEvents" j) with
    | Some (Obs.Json.Str schema), _ -> (
      match List.assoc_opt schema schemas with
      | Some check -> Result.map (fun () -> schema) (check j)
      | None -> Error (Printf.sprintf "unknown schema %S" schema))
    | Some _, _ -> Error "unknown schema (not a string)"
    | None, Some _ ->
      Result.map (fun () -> "chrome-trace") (Obs.Chrome_trace.validate j)
    | None, None -> Error "no schema field and no traceEvents")
