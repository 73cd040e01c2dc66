open Parsetree

(* --- the typed allowlist --------------------------------------------- *)

(* Sharing a mutable value across a domain boundary is sanctioned only
   here, with a rationale.  Each entry names (file, value) exactly; the
   escape pass turns a matching capture into [Escapes_guarded] instead
   of a finding, and the rationale travels into the lint-domains/v2
   inventory artifact. *)
let sanctioned =
  [
    ( "lib/shard/tier.ml",
      "per_shard",
      "per-shard op buckets built before the fan-out: each worker only \
       reads its own slot" );
  ]

let in_libs libs = function
  | Rule.Lib l -> List.mem l libs
  | Rule.Bin | Rule.Test | Rule.Examples | Rule.Other -> false

(* --- R6: no unsynchronized mutable capture across a domain boundary -- *)

let r6 =
  let rec rule =
    {
      Rule.id = "R6";
      name = "no-unsync-domain-capture";
      summary =
        "no mutable value (ref, Hashtbl, Buffer, Queue, array, mutable \
         record, ...) captured by a closure crossing a domain boundary \
         unless it synchronizes (Atomic/Mutex) or carries a typed \
         allowlist entry";
      severity = Finding.Error;
      applies =
        (function
        | Rule.Lib _ | Rule.Bin -> true
        | Rule.Test | Rule.Examples | Rule.Other -> false);
      kind = Rule.Global (fun env ctx str -> check env ctx str);
    }
  and check env ctx str =
    let inv =
      Escape.analyze ~env ~sanctioned ~file:ctx.Rule.file str
    in
    List.iter
      (fun (e : Escape.entry) ->
        match e.verdict with
        | Escape.Escapes_unsync capture_line ->
          Rule.finding_at ctx rule ~line:capture_line ~col:0
            (Printf.sprintf
               "mutable %s '%s' (defined line %d) is captured by a \
                closure that crosses a domain boundary without \
                synchronization; share via Atomic.t, return results by \
                value, or add a rationale to Domains_rule.sanctioned"
               (Escape.kind_to_string e.value.Escape.kind)
               e.value.Escape.name e.value.Escape.line)
        | Escape.Local | Escape.Escapes_sync _ | Escape.Escapes_guarded _ ->
          ())
      inv.Escape.entries
  in
  rule

(* --- R7: atomic read-modify-write discipline ------------------------- *)

(* [Atomic.set x (f (Atomic.get x))] — directly nested or through a
   let-binding — is a lost-update race across domains; the only safe
   shapes are [Atomic.compare_and_set] / [fetch_and_add] / [incr]. *)

let atomic_get_target e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (_, x) ]) -> (
    match (Escape.ident_path f, Escape.ident_path x) with
    | Some [ "Atomic"; "get" ], Some path -> Some path
    | _ -> None)
  | _ -> None

let atomic_set_parts e =
  match e.pexp_desc with
  | Pexp_apply (f, [ (_, x); (_, v) ]) -> (
    match (Escape.ident_path f, Escape.ident_path x) with
    | Some [ "Atomic"; "set" ], Some path -> Some (path, v)
    | _ -> None)
  | _ -> None

let expr_contains pred e =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ee ->
          if pred ee then found := true;
          Ast_iterator.default_iterator.expr it ee);
    }
  in
  it.expr it e;
  !found

let uses_name name e =
  expr_contains
    (fun ee ->
      match ee.pexp_desc with
      | Pexp_ident { txt = Longident.Lident x; _ } -> String.equal x name
      | _ -> false)
    e

let r7 =
  let rec rule =
    {
      Rule.id = "R7";
      name = "atomic-rmw-discipline";
      summary =
        "no Atomic.get/Atomic.set read-modify-write pairs on the same \
         atomic; use compare_and_set / fetch_and_add / incr";
      severity = Finding.Error;
      applies = (function Rule.Lib _ -> true | _ -> false);
      kind = Rule.Ast (fun ctx str -> check ctx str);
    }
  and flag ctx loc path =
    Rule.finding ctx rule ~loc
      (Printf.sprintf
         "read-modify-write on atomic '%s': a concurrent writer between \
          the get and the set loses an update; use \
          Atomic.compare_and_set, fetch_and_add or incr"
         (String.concat "." path))
  and check ctx str =
    let it =
      {
        Ast_iterator.default_iterator with
        expr =
          (fun it e ->
            (match atomic_set_parts e with
            | Some (path, v) ->
              (* direct nesting: Atomic.set x (... Atomic.get x ...) *)
              if
                expr_contains
                  (fun ee -> atomic_get_target ee = Some path)
                  v
              then flag ctx e.pexp_loc path
            | None -> ());
            (match e.pexp_desc with
            | Pexp_let (_, vbs, body) ->
              (* let v = Atomic.get x in ... Atomic.set x (...v...) *)
              List.iter
                (fun vb ->
                  match
                    (vb.pvb_pat.ppat_desc, atomic_get_target vb.pvb_expr)
                  with
                  | Ppat_var { txt = bound; _ }, Some path ->
                    let flag_sets ee =
                      match atomic_set_parts ee with
                      | Some (set_path, v)
                        when set_path = path && uses_name bound v ->
                        flag ctx ee.pexp_loc path
                      | _ -> ()
                    in
                    let sub =
                      {
                        Ast_iterator.default_iterator with
                        expr =
                          (fun it ee ->
                            flag_sets ee;
                            Ast_iterator.default_iterator.expr it ee);
                      }
                    in
                    sub.expr sub body
                  | _ -> ())
                vbs
            | _ -> ());
            Ast_iterator.default_iterator.expr it e);
      }
    in
    it.structure it str
  in
  rule

(* --- R8: no blocking primitives in worker closures ------------------- *)

let blocking_path = function
  | [ "Mutex"; "lock" ] ->
    Some "Mutex.lock can deadlock against the pool's own join"
  | [ "Condition"; "wait" ] ->
    Some "Condition.wait parks the worker domain indefinitely"
  | [ "Thread"; ("delay" | "join") ] -> Some "thread-level blocking"
  | [ "Unix"; ("sleep" | "sleepf" | "select" | "wait" | "waitpid") ] ->
    Some "a real-time wait stalls the whole domain"
  | [ "Domain"; "join" ] ->
    Some "joining a domain from inside a worker nests scheduling"
  | [ "Semaphore"; ("Counting" | "Binary"); "acquire" ] ->
    Some "semaphore acquisition can park the worker domain"
  | _ -> None

let r8 =
  let rec rule =
    {
      Rule.id = "R8";
      name = "no-blocking-in-worker";
      summary =
        "no blocking primitives (Mutex.lock, Condition.wait, Unix \
         waits, Domain.join) inside closures handed to Pool.map / \
         Domain.spawn";
      severity = Finding.Error;
      applies =
        (function
        | Rule.Lib _ | Rule.Bin -> true
        | Rule.Test | Rule.Examples | Rule.Other -> false);
      kind = Rule.Global (fun env ctx str -> check env ctx str);
    }
  and check env ctx str =
    let self = Escape.module_name ctx.Rule.file in
    List.iter
      (fun closure ->
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e ->
                (match Escape.ident_path e with
                | Some path -> (
                  match blocking_path path with
                  | Some why ->
                    Rule.finding ctx rule ~loc:e.pexp_loc
                      (Printf.sprintf
                         "%s inside a domain-boundary worker closure: %s; \
                          keep workers non-blocking and communicate by \
                          return value"
                         (String.concat "." path) why)
                  | None -> ())
                | None -> ());
                Ast_iterator.default_iterator.expr it e);
          }
        in
        it.expr it closure)
      (Escape.boundary_closures ~env ~self str)
  in
  rule

(* --- R9: domain-boundary purity (no out-parameter mutation) ---------- *)

(* Module functions whose first argument being mutated means the worker
   is writing through a captured structure. *)
let mutating_call = function
  | [ "Array"; ("set" | "fill" | "blit" | "sort" | "stable_sort") ] -> true
  | [ "Hashtbl";
      ( "add" | "replace" | "remove" | "reset" | "clear"
      | "filter_map_inplace" ) ] ->
    true
  | [ "Buffer";
      ( "add_string" | "add_char" | "add_bytes" | "add_buffer"
      | "add_substring" | "clear" | "reset" | "truncate" ) ] ->
    true
  | [ "Queue"; ("push" | "add" | "pop" | "take" | "clear" | "transfer") ] ->
    true
  | [ "Stack"; ("push" | "pop" | "clear") ] -> true
  | [ "Bytes"; ("set" | "fill" | "blit") ] -> true
  | _ -> false

let worker_libs = [ "mc"; "chaos"; "shard" ]

let r9 =
  let rec rule =
    {
      Rule.id = "R9";
      name = "domain-boundary-purity";
      summary =
        "worker closures in lib/mc, lib/chaos, lib/shard must return \
         results by value, not mutate captured state (out-parameters)";
      severity = Finding.Error;
      applies = in_libs worker_libs;
      kind = Rule.Global (fun env ctx str -> check env ctx str);
    }
  and flag ctx loc name what =
    Rule.finding ctx rule ~loc
      (Printf.sprintf
         "worker closure %s captured '%s'; workers must be pure — return \
          the result and merge it after the join"
         what name)
  and check env ctx str =
    let self = Escape.module_name ctx.Rule.file in
    List.iter
      (fun closure ->
        let free = Escape.free_names closure in
        let free_ident e =
          match e.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ }
            when List.mem x free ->
            Some x
          | _ -> None
        in
        let it =
          {
            Ast_iterator.default_iterator with
            expr =
              (fun it e ->
                (match e.pexp_desc with
                | Pexp_setfield (target, _, _) -> (
                  match free_ident target with
                  | Some x -> flag ctx e.pexp_loc x "writes a field of"
                  | None -> ())
                | Pexp_apply (f, args) -> (
                  match (Escape.ident_path (Escape.apply_head f), args) with
                  | Some [ ":=" ], (_, lhs) :: _ -> (
                    match free_ident lhs with
                    | Some x -> flag ctx e.pexp_loc x "assigns to"
                    | None -> ())
                  | Some path, (_, first) :: _ when mutating_call path -> (
                    match free_ident first with
                    | Some x ->
                      flag ctx e.pexp_loc x
                        (Printf.sprintf "calls %s on" (String.concat "." path))
                    | None -> ())
                  | _ -> ())
                | _ -> ());
                Ast_iterator.default_iterator.expr it e);
          }
        in
        it.expr it closure)
      (Escape.boundary_closures ~env ~self str)
  in
  rule

let all = [ r6; r7; r8; r9 ]
