(* stablint driver.

     dune exec bin/lint.exe                        # scan lib/ and bin/
     dune exec bin/lint.exe -- --json lint-report.json
     dune exec bin/lint.exe -- --update-baseline

   [experiments validate] schema-checks the artifacts it writes.
   Exit status 0 means no findings outside the committed baseline;
   1 means new findings (printed one per line); 2 means usage error. *)

open Cmdliner

let default_baseline_name = "lint-baseline.json"

(* --- run ------------------------------------------------------------- *)

let paths_arg =
  let doc = "Subdirectories of $(b,--root) to scan for .ml files." in
  Arg.(
    value
    & pos_all string [ "lib"; "bin"; "test"; "examples" ]
    & info [] ~docv:"PATH" ~doc)

let root_arg =
  let doc = "Project root; findings are reported relative to it." in
  Arg.(value & opt dir "." & info [ "root" ] ~docv:"DIR" ~doc)

let json_arg =
  let doc =
    "Write the run as a $(b,stabreg/lint-report/v1) artifact to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)

let domains_json_arg =
  let doc =
    "Write the shared-state inventory as a $(b,stabreg/lint-domains/v2) \
     artifact to $(docv)."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "domains-json" ] ~docv:"FILE" ~doc)

let baseline_arg =
  let doc =
    "Baseline file (schema $(b,stabreg/lint-baseline/v1)); defaults to \
     $(b,lint-baseline.json) under $(b,--root) when that file exists."
  in
  Arg.(value & opt (some string) None & info [ "baseline" ] ~docv:"FILE" ~doc)

let no_baseline_arg =
  let doc = "Ignore any baseline: report every finding as new." in
  Arg.(value & flag & info [ "no-baseline" ] ~doc)

let update_baseline_arg =
  let doc =
    "Rewrite the baseline to accept exactly the current findings, then \
     exit 0."
  in
  Arg.(value & flag & info [ "update-baseline" ] ~doc)

let load_baseline path =
  match Obs.Json.parse (Obs.File.read path) with
  | Error e -> Error (Printf.sprintf "%s: parse error: %s" path e)
  | Ok j -> (
    match Lint.Report.baseline_entries j with
    | Ok entries -> Ok entries
    | Error e -> Error (Printf.sprintf "%s: %s" path e))

let run root paths json domains_json baseline no_baseline update_baseline =
  let scan = Lint.Driver.scan ~root ~paths () in
  let baseline_path =
    match baseline with
    | Some p -> Some p
    | None ->
      let p = Filename.concat root default_baseline_name in
      if Sys.file_exists p then Some p else None
  in
  if update_baseline then begin
    let p =
      Option.value baseline_path
        ~default:(Filename.concat root default_baseline_name)
    in
    Obs.File.write p
      (Lint.Report.render_baseline
         (Lint.Report.baseline_of_findings scan.findings));
    Printf.printf "wrote %s (%d entr%s)\n" p
      (List.length scan.findings)
      (if List.length scan.findings = 1 then "y" else "ies");
    `Ok ()
  end
  else
    match
      match (no_baseline, baseline_path) with
      | true, _ | _, None -> Ok []
      | false, Some p -> load_baseline p
    with
    | Error e -> `Error (false, e)
    | Ok entries ->
      let report =
        Lint.Report.make ~paths ~files_scanned:scan.files_scanned
          ~suppressed:scan.suppressed ~baseline:entries scan.findings
      in
      Option.iter
        (fun file ->
          let rendered =
            Lint.Report.render_domains ~paths scan.inventory
          in
          (match
             Result.bind (Obs.Json.parse rendered)
               Lint.Report.validate_domains
           with
          | Ok () -> ()
          | Error e ->
            prerr_endline
              ("internal error: emitted inventory is invalid: " ^ e);
            exit 3);
          Obs.File.write file rendered)
        domains_json;
      Option.iter
        (fun file ->
          let rendered = Lint.Report.render report in
          (* self-check: never emit an artifact the validator rejects *)
          (match
             Result.bind
               (Obs.Json.parse rendered)
               Lint.Report.validate
           with
          | Ok () -> ()
          | Error e ->
            prerr_endline ("internal error: emitted report is invalid: " ^ e);
            exit 3);
          Obs.File.write file rendered)
        json;
      List.iter
        (fun f -> print_endline (Lint.Finding.to_string f))
        report.Lint.Report.fresh;
      if report.Lint.Report.stale_baseline > 0 then
        Printf.printf
          "error: %d stale baseline entr%s (fixed findings); run \
           --update-baseline to burn them down\n"
          report.Lint.Report.stale_baseline
          (if report.Lint.Report.stale_baseline = 1 then "y" else "ies");
      Printf.printf
        "%d file(s), %d new finding(s), %d baselined, %d suppressed\n"
        scan.files_scanned
        (List.length report.Lint.Report.fresh)
        (List.length report.Lint.Report.baselined)
        scan.suppressed;
      if
        report.Lint.Report.fresh = []
        && report.Lint.Report.stale_baseline = 0
      then `Ok ()
      else exit 1

let run_cmd =
  let doc =
    "Parse every .ml under the given paths and run the stablint rules \
     (R1 no-nondeterminism, R2 no-polymorphic-compare, R3 \
     no-wildcard-message-match, R4 no-partial-functions, R5 \
     mli-coverage, R6 no-unsync-domain-capture, R7 \
     atomic-rmw-discipline, R8 no-blocking-in-worker, R9 \
     domain-boundary-purity)."
  in
  Cmd.v
    (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ root_arg $ paths_arg $ json_arg $ domains_json_arg
       $ baseline_arg $ no_baseline_arg $ update_baseline_arg))

let () =
  let doc = "stablint: determinism/totality static analysis for stabreg" in
  let default =
    Term.(
      ret
        (const run $ root_arg $ paths_arg $ json_arg $ domains_json_arg
       $ baseline_arg $ no_baseline_arg $ update_baseline_arg))
  in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "lint" ~doc ~version:"%%VERSION%%")
          [ run_cmd ]))
