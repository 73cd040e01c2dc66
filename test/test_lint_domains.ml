(* stablint domain-safety pass: R6-R9 fire at the expected places on
   known-bad fixtures, the cross-file boundary environment discovers
   wrapper functions interprocedurally, the repo's own tree is clean
   (only the allowlisted captures), and the lint-domains/v1 inventory
   artifact is deterministic and schema-valid. *)

open Util

let finding_list = Alcotest.(check (list (pair string int)))

let rule_lines (r : Lint.Driver.file_result) =
  List.map
    (fun (f : Lint.Finding.t) -> (f.Lint.Finding.rule, f.Lint.Finding.line))
    r.Lint.Driver.findings

let fixture ~rules ~display path =
  Lint.Driver.lint_file ~rules ~display ("lint_fixtures/domains/" ^ path)

(* --- R6: no unsynchronized mutable capture ---------------------------- *)

let test_r6_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r6 ] ~display:"lib/kv/r6_bad.ml"
      "r6_bad.ml"
  in
  (* the ref, the Hashtbl and the Buffer escape; the Atomic capture and
     the pure closures stay silent *)
  finding_list "R6 sites"
    [ ("R6", 12); ("R6", 19); ("R6", 33) ]
    (rule_lines r)

let test_r6_out_of_scope () =
  let r = fixture ~rules:[ Lint.Rules.r6 ] ~display:"test/r6_bad.ml"
      "r6_bad.ml"
  in
  finding_list "test scope is out of R6 scope" [] (rule_lines r)

(* --- R7: atomic read-modify-write discipline -------------------------- *)

let test_r7_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r7 ] ~display:"lib/kv/r7_bad.ml"
      "r7_bad.ml"
  in
  (* direct nesting and the let-bound form; incr / fetch_and_add /
     compare_and_set / an unrelated plain set stay silent *)
  finding_list "R7 sites" [ ("R7", 6); ("R7", 10) ] (rule_lines r)

(* --- R8: no blocking primitives in worker closures -------------------- *)

let test_r8_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r8 ] ~display:"lib/kv/r8_bad.ml"
      "r8_bad.ml"
  in
  (* Mutex.lock in a Pool.map worker, Domain.join nested inside a
     spawned closure; the caller's own join stays silent *)
  finding_list "R8 sites" [ ("R8", 9); ("R8", 18) ] (rule_lines r)

(* --- R9: domain-boundary purity --------------------------------------- *)

let test_r9_fixture () =
  let r = fixture ~rules:[ Lint.Rules.r9 ] ~display:"lib/chaos/r9_bad.ml"
      "r9_bad.ml"
  in
  (* Array.set on a captured array, := on a captured ref, <- on a
     captured mutable record; returning by value stays silent *)
  finding_list "R9 sites"
    [ ("R9", 13); ("R9", 14); ("R9", 15) ]
    (rule_lines r)

let test_r9_only_worker_libs () =
  let r = fixture ~rules:[ Lint.Rules.r9 ] ~display:"lib/kv/r9_bad.ml"
      "r9_bad.ml"
  in
  finding_list "lib/kv is out of R9 scope" [] (rule_lines r)

(* --- interprocedural boundary discovery ------------------------------- *)

let domains_tree_scan ?(rules = [ Lint.Rules.r6 ]) () =
  Lint.Driver.scan ~rules ~root:"lint_fixtures/domains/tree" ~paths:[ "lib" ]
    ()

let test_interprocedural_boundary () =
  (* Pool_like.run only forwards its closure into Pool.map; the capture
     in user.ml is visible only through the cross-file environment. *)
  let s = domains_tree_scan () in
  check_int "both files scanned" 2 s.Lint.Driver.files_scanned;
  finding_list "R6 through the wrapper"
    [ ("R6", 8) ]
    (List.map
       (fun (f : Lint.Finding.t) -> (f.Lint.Finding.rule, f.Lint.Finding.line))
       (List.filter
          (fun (f : Lint.Finding.t) ->
            String.equal f.Lint.Finding.file "lib/shard/user.ml")
          s.Lint.Driver.findings));
  (* the wrapper itself is a boundary site in the inventory *)
  match
    List.find_opt
      (fun (m : Lint.Escape.module_inventory) ->
        String.equal m.Lint.Escape.file "lib/shard/pool_like.ml")
      s.Lint.Driver.inventory
  with
  | None -> Alcotest.fail "pool_like.ml missing from the inventory"
  | Some m ->
    check_true "wrapper has a boundary line"
      (m.Lint.Escape.boundary_lines <> [])

(* --- the repo's own tree under the domain rules ----------------------- *)

let test_self_tree_clean_with_allowlist () =
  let s =
    Lint.Driver.scan ~rules:Lint.Domains_rule.all ~root:".."
      ~paths:[ "lib"; "bin" ] ()
  in
  (match s.Lint.Driver.findings with
   | [] -> ()
   | fs ->
     Alcotest.failf "domain rules fire on the real tree:\n%s"
       (String.concat "\n" (List.map Lint.Finding.to_string fs)));
  let guarded =
    List.concat_map
      (fun (m : Lint.Escape.module_inventory) ->
        List.filter_map
          (fun (e : Lint.Escape.entry) ->
            match e.Lint.Escape.verdict with
            | Lint.Escape.Escapes_guarded _ ->
              Some (m.Lint.Escape.file, e.Lint.Escape.value.Lint.Escape.name)
            | Lint.Escape.Local | Lint.Escape.Escapes_sync _
            | Lint.Escape.Escapes_unsync _ ->
              None)
          m.Lint.Escape.entries)
      s.Lint.Driver.inventory
  in
  Alcotest.(check (list (pair string string)))
    "exactly the allowlisted captures"
    [ ("lib/shard/tier.ml", "per_shard") ]
    (List.sort
       (fun (f1, n1) (f2, n2) ->
         match String.compare f1 f2 with
         | 0 -> String.compare n1 n2
         | c -> c)
       guarded);
  let unsync =
    List.exists
      (fun (m : Lint.Escape.module_inventory) ->
        List.exists
          (fun (e : Lint.Escape.entry) ->
            match e.Lint.Escape.verdict with
            | Lint.Escape.Escapes_unsync _ -> true
            | _ -> false)
          m.Lint.Escape.entries)
      s.Lint.Driver.inventory
  in
  check_true "no unsynchronized escapes anywhere" (not unsync)

(* --- the lint-domains/v1 artifact ------------------------------------- *)

let test_inventory_deterministic_and_valid () =
  let render () =
    let s = domains_tree_scan () in
    Lint.Report.render_domains ~paths:[ "lib" ] s.Lint.Driver.inventory
  in
  let a = render () and b = render () in
  Alcotest.(check string) "byte-identical across runs" a b;
  match Obs.Json.parse a with
  | Error e -> Alcotest.failf "inventory does not reparse: %s" e
  | Ok j -> (
    (match Lint.Report.validate_domains j with
     | Ok () -> ()
     | Error e -> Alcotest.failf "inventory does not validate: %s" e);
    match Exp_drivers.Artifacts.validate a with
    | Ok schema ->
      Alcotest.(check string)
        "validated as" Lint.Report.domains_schema_version schema
    | Error e ->
      Alcotest.failf "experiments validate rejects an inventory: %s" e)

let test_validate_domains_rejects_junk () =
  check_true "wrong schema rejected"
    (Result.is_error
       (Lint.Report.validate_domains
          (Obs.Json.Obj [ ("schema", Obs.Json.Str "stabreg/other/v1") ])));
  check_true "missing fields rejected"
    (Result.is_error
       (Lint.Report.validate_domains
          (Obs.Json.Obj
             [ ("schema", Obs.Json.Str Lint.Report.domains_schema_version) ])))

let tests =
  [
    case "R6 unsync-capture fixture" test_r6_fixture;
    case "R6 is lib/bin scoped" test_r6_out_of_scope;
    case "R7 atomic-rmw fixture" test_r7_fixture;
    case "R8 blocking-in-worker fixture" test_r8_fixture;
    case "R9 out-parameter fixture" test_r9_fixture;
    case "R9 only in worker libs" test_r9_only_worker_libs;
    case "boundary wrappers found interprocedurally"
      test_interprocedural_boundary;
    case "self tree clean; allowlist exact" test_self_tree_clean_with_allowlist;
    case "lint-domains inventory deterministic and valid"
      test_inventory_deterministic_and_valid;
    case "lint-domains validator rejects junk" test_validate_domains_rejects_junk;
  ]
