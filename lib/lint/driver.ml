type file_result = { findings : Finding.t list; suppressed : int }

let parse_rule_id = "PARSE"

let suppress_rule_id = "SUPPRESS"

let parse_implementation ~file source =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception exn ->
    let line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum in
    let msg =
      match exn with
      | Syntaxerr.Error _ -> "syntax error"
      | e -> Printexc.to_string e
    in
    Error (line, msg)

let parse_failure ~file line msg =
  {
    findings =
      [
        Finding.v ~file ~line:(max line 1) ~col:0 ~rule:parse_rule_id
          ~severity:Finding.Error
          (Printf.sprintf "file does not parse: %s" msg);
      ];
    suppressed = 0;
  }

(* Lint one already-parsed file.  [env] is the whole-tree escape
   environment for the Global rules; a single-file run derives it from
   the file alone (the builtin boundaries are still recognized). *)
let lint_parsed ~env ~rules ~scope ~file ~source ast =
  let acc = ref [] in
  let ctx = { Rule.file; scope; add = (fun f -> acc := f :: !acc) } in
  let active = ref [] in
  List.iter
    (fun (r : Rule.t) ->
      match r.kind with
      | Rule.Ast check when r.applies scope ->
        active := r.Rule.id :: !active;
        check ctx ast
      | Rule.Global check when r.applies scope ->
        active := r.Rule.id :: !active;
        check env ctx ast
      | Rule.Ast _ | Rule.Global _ | Rule.Tree _ -> ())
    rules;
  let spans = Suppress.collect source in
  let findings, suppressed, unused =
    Suppress.filter ~active:!active spans
      (List.sort_uniq Finding.compare !acc)
  in
  let unused_findings =
    List.map
      (fun ((s : Suppress.span), rule) ->
        Finding.v ~file ~line:s.Suppress.line ~col:0 ~rule:suppress_rule_id
          ~severity:Finding.Warning
          (Printf.sprintf
             "suppression for %s covering line %d matches no finding; \
              remove the stale pragma"
             rule s.Suppress.line))
      unused
  in
  {
    findings = List.sort_uniq Finding.compare (unused_findings @ findings);
    suppressed;
  }

let lint_source ?env ~rules ~scope ~file source =
  match parse_implementation ~file source with
  | Error (line, msg) -> parse_failure ~file line msg
  | Ok ast ->
    let env =
      match env with
      | Some e -> e
      | None -> Escape.build_env [ (file, ast) ]
    in
    lint_parsed ~env ~rules ~scope ~file ~source ast

let lint_file ?env ~rules ?scope ?display path =
  let display = Option.value display ~default:path in
  let scope =
    match scope with Some s -> s | None -> Rule.classify display
  in
  lint_source ?env ~rules ~scope ~file:display (Obs.File.read path)

(* --- tree walk ------------------------------------------------------- *)

let skip_dir name =
  String.length name = 0
  || name.[0] = '.'
  || name.[0] = '_'
  || String.equal name "lint_fixtures"

let rec walk fs_dir rel acc =
  let entries = Sys.readdir fs_dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      let fs = Filename.concat fs_dir name in
      let rel = if String.equal rel "" then name else rel ^ "/" ^ name in
      if Sys.is_directory fs then
        if skip_dir name then acc else walk fs rel acc
      else if Filename.check_suffix name ".ml" then (rel, fs) :: acc
      else acc)
    acc entries

type scan_result = {
  files_scanned : int;
  findings : Finding.t list;
  suppressed : int;
  inventory : Escape.module_inventory list;
}

(* Only lib/ and bin/ modules enter the inventory: that is where the
   domain rules apply, and keeping tests out makes the artifact stable
   under fixture churn. *)
let inventory_scope = function
  | Rule.Lib _ | Rule.Bin -> true
  | Rule.Test | Rule.Examples | Rule.Other -> false

let scan ?(rules = Rules.all) ~root ~paths () =
  let files =
    List.fold_left
      (fun acc p ->
        let fs = Filename.concat root p in
        if Sys.file_exists fs && Sys.is_directory fs then walk fs p acc
        else acc)
      [] paths
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  (* phase 1: read + parse everything, build the cross-file escape
     environment from the files that parse *)
  let loaded =
    List.map
      (fun (rel, fs) ->
        let source = Obs.File.read fs in
        (rel, source, parse_implementation ~file:rel source))
      files
  in
  let env =
    Escape.build_env
      (List.filter_map
         (fun (rel, _, parsed) ->
           match parsed with Ok ast -> Some (rel, ast) | Error _ -> None)
         loaded)
  in
  (* phase 2: per-file rules with the shared environment *)
  let per_file =
    List.map
      (fun (rel, source, parsed) ->
        let scope = Rule.classify rel in
        match parsed with
        | Error (line, msg) -> parse_failure ~file:rel line msg
        | Ok ast -> lint_parsed ~env ~rules ~scope ~file:rel ~source ast)
      loaded
  in
  let tree_findings =
    let classified = List.map (fun (rel, _) -> (rel, Rule.classify rel)) files in
    List.concat_map
      (fun (r : Rule.t) ->
        match r.kind with
        | Rule.Tree check -> check ~root classified
        | Rule.Ast _ | Rule.Global _ -> [])
      rules
  in
  let inventory =
    List.filter_map
      (fun (rel, _, parsed) ->
        match parsed with
        | Ok ast when inventory_scope (Rule.classify rel) ->
          let inv =
            Escape.analyze ~env ~sanctioned:Domains_rule.sanctioned
              ~file:rel ast
          in
          if inv.Escape.entries = [] && inv.Escape.boundary_lines = [] then
            None
          else Some inv
        | Ok _ | Error _ -> None)
      loaded
  in
  {
    files_scanned = List.length files;
    findings =
      List.sort Finding.compare
        (tree_findings
        @ List.concat_map (fun (r : file_result) -> r.findings) per_file);
    suppressed =
      List.fold_left
        (fun n (r : file_result) -> n + r.suppressed)
        0 per_file;
    inventory;
  }
