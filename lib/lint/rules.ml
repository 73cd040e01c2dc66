open Parsetree

(* --- shared helpers ------------------------------------------------- *)

let flatten lid = try Longident.flatten lid with _ -> []

(* Strip a leading [Stdlib.] so [Stdlib.Hashtbl.fold] and [Hashtbl.fold]
   look the same. *)
let norm = function "Stdlib" :: rest -> rest | p -> p

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (norm (flatten txt))
  | _ -> None

let take n l =
  let rec go n = function
    | x :: tl when n > 0 -> x :: go (n - 1) tl
    | _ -> []
  in
  go n l

let loc_inside ~(outer : Location.t) (inner : Location.t) =
  outer.loc_start.pos_cnum <= inner.loc_start.pos_cnum
  && inner.loc_end.pos_cnum <= outer.loc_end.pos_cnum

(* An iterator over expressions that also hands each visit the stack of
   enclosing expressions (nearest first).  Rules use the ancestry to
   sanction patterns like "fold, then immediately sort". *)
let iter_with_ancestors structure visit =
  let stack = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          visit ~ancestors:!stack e;
          stack := e :: !stack;
          Ast_iterator.default_iterator.expr it e;
          stack := List.tl !stack);
    }
  in
  it.structure it structure

let det_libs =
  [ "sim"; "mc"; "chaos"; "registers"; "history"; "obs"; "shard"; "workload" ]

let protocol_libs = [ "registers"; "history"; "mc"; "chaos"; "shard" ]

let hot_path_libs = [ "registers"; "history"; "mc"; "chaos"; "sim"; "datalink" ]

let in_libs libs = function Rule.Lib l -> List.mem l libs | _ -> false

(* test/ and examples/ run a relaxed subset: the comparator and
   partial-function rules still hold there (fixture-adjacent real code
   shouldn't be invisible), the determinism/message/mli rules don't. *)
let relaxed_scope = function Rule.Test | Rule.Examples -> true | _ -> false

(* --- R1: no-nondeterminism ------------------------------------------ *)

let sort_fns = [ "sort"; "stable_sort"; "fast_sort"; "sort_uniq" ]

let rec apply_head e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> apply_head f
  | _ -> e

let is_sort_expr e =
  match ident_path (apply_head e) with
  | Some [ "List"; f ] | Some [ "Array"; f ] -> List.mem f sort_fns
  | _ -> false

(* Is some enclosing expression (within a few levels) a sort application,
   either direct ([List.sort cmp (Hashtbl.fold ...)]) or through a pipe
   ([Hashtbl.fold ... |> List.sort cmp])? *)
let sorted_immediately ancestors =
  List.exists
    (fun a ->
      match a.pexp_desc with
      | Pexp_apply (f, args) -> (
        is_sort_expr f
        ||
        match ident_path f with
        | Some [ ("|>" | "@@") ] ->
          List.exists (fun (_, arg) -> is_sort_expr arg) args
        | _ -> false)
      | _ -> false)
    (take 4 ancestors)

let r1 =
  let meta_summary =
    "no ambient randomness, wall-clock reads, or unsorted Hashtbl \
     iteration in determinism-critical libraries"
  in
  let rec rule =
    {
      Rule.id = "R1";
      name = "no-nondeterminism";
      summary = meta_summary;
      severity = Finding.Error;
      applies = in_libs det_libs;
      kind = Rule.Ast (fun ctx str -> check ctx str);
    }
  and check ctx str =
    iter_with_ancestors str (fun ~ancestors e ->
        match ident_path e with
        | Some [ "Random"; "State"; "make_self_init" ] ->
          Rule.finding ctx rule ~loc:e.pexp_loc
            "Random.State.make_self_init seeds from the environment; seed \
             explicitly (Random.State.make) or use Sim.Rng"
        | Some [ "Random"; "State"; _ ] -> ()
        | Some [ "Random"; fn ] ->
          Rule.finding ctx rule ~loc:e.pexp_loc
            (Printf.sprintf
               "ambient Random.%s reads the global RNG; thread a seeded \
                Sim.Rng / Random.State instead"
               fn)
        | Some
            [
              "Unix";
              ("gettimeofday" | "time" | "localtime" | "gmtime" | "times");
            ] ->
          Rule.finding ctx rule ~loc:e.pexp_loc
            "wall-clock read; derive time from the simulation's virtual \
             clock (drivers in bin/ may inject a real clock, e.g. \
             Obs.Profile's ?clock)"
        | Some [ "Unix"; ("sleep" | "sleepf" | "select") ] ->
          Rule.finding ctx rule ~loc:e.pexp_loc
            "real-time waiting makes behavior depend on the host \
             scheduler; advance the simulation's virtual clock instead"
        | Some [ "Sys"; "time" ] ->
          Rule.finding ctx rule ~loc:e.pexp_loc
            "Sys.time reads process CPU time; derive time from the \
             simulation's virtual clock (drivers in bin/ may inject a \
             real clock, e.g. Obs.Profile's ?clock)"
        | Some [ "Domain"; ("spawn" | "join") ] ->
          Rule.finding ctx rule ~loc:e.pexp_loc
            "Domain.spawn introduces OS-level scheduling into a \
             determinism-critical library; multicore is sanctioned only \
             inside lib/parallel (fan out via Parallel.Pool.map)"
        | Some [ "Hashtbl"; "iter" ] ->
          Rule.finding ctx rule ~loc:e.pexp_loc
            "Hashtbl.iter visits bindings in table order, which is not \
             stable; iterate a key-sorted snapshot instead"
        | Some [ "Hashtbl"; "fold" ] ->
          if not (sorted_immediately ancestors) then
            Rule.finding ctx rule ~loc:e.pexp_loc
              "Hashtbl.fold result depends on table order; sort the \
               snapshot immediately (|> List.sort ...)"
        | _ -> ())
  in
  rule

(* --- R2: no-polymorphic-compare ------------------------------------- *)

let poly_ops = [ "compare"; "="; "<>"; "<"; ">"; "<="; ">=" ]

let is_structured e =
  match e.pexp_desc with
  | Pexp_record _ | Pexp_tuple _ | Pexp_array _ -> true
  | Pexp_construct (_, Some _) -> true
  | Pexp_variant (_, Some _) -> true
  | _ -> false

(* [max]/[min] are ordinary polymorphic functions, never specialized at
   a known type: every call is a C compare.  Checked in the hot-path
   libraries as well as the protocol ones, but not in test/ or
   examples/. *)
let poly_extrema = [ "max"; "min" ]

let extrema_scope s = in_libs protocol_libs s || in_libs hot_path_libs s

(* [{ max }] reads a local [max], not the function. *)
let punned e = function
  | { pexp_desc = Pexp_record (fields, _); _ } :: _ ->
    List.exists
      (fun ((lid : _ Location.loc), v) ->
        v == e && lid.loc.loc_start.pos_cnum = e.pexp_loc.loc_start.pos_cnum)
      fields
  | _ -> false

let r2 =
  let rec rule =
    {
      Rule.id = "R2";
      name = "no-polymorphic-compare";
      summary =
        "no Stdlib.compare / bare compare comparators / polymorphic =,<> \
         on structured values in protocol and oracle code, and no \
         polymorphic max/min in protocol and hot-path code";
      severity = Finding.Error;
      applies = (fun s -> extrema_scope s || relaxed_scope s);
      kind = Rule.Ast (fun ctx str -> check ctx str);
    }
  and check ctx str =
    let scope = ctx.Rule.scope in
    let compares = in_libs protocol_libs scope || relaxed_scope scope in
    let extrema = extrema_scope scope in
    iter_with_ancestors str (fun ~ancestors e ->
        match e.pexp_desc with
        | Pexp_ident { txt; _ } -> (
          match flatten txt with
          | [ ("Stdlib" | "Pervasives"); op ]
            when compares && List.mem op poly_ops ->
            Rule.finding ctx rule ~loc:e.pexp_loc
              (Printf.sprintf
                 "polymorphic %s compares arbitrary representations; use a \
                  typed comparator (Int.compare, String.compare, \
                  Value.compare, ...)"
                 (if String.equal op "compare" then "Stdlib.compare"
                  else Printf.sprintf "Stdlib.(%s)" op))
          | ([ op ] | [ ("Stdlib" | "Pervasives"); op ])
            when extrema && List.mem op poly_extrema && not (punned e ancestors)
            ->
            Rule.finding ctx rule ~loc:e.pexp_loc
              (Printf.sprintf
                 "polymorphic %s is a C compare on every call; use Int.%s \
                  for ints, or a typed if for floats"
                 op op)
          | _ -> ())
        | Pexp_apply _ when not compares -> ()
        | Pexp_apply (f, args) -> (
          (* bare [compare] passed as a comparator argument *)
          List.iter
            (fun (_, arg) ->
              match arg.pexp_desc with
              | Pexp_ident { txt = Longident.Lident "compare"; _ } ->
                Rule.finding ctx rule ~loc:arg.pexp_loc
                  "bare polymorphic compare used as a comparator; pass a \
                   typed compare function"
              | _ -> ())
            args;
          (* [=] / [<>] on a syntactically structured operand *)
          match (ident_path f, args) with
          | Some [ (("=" | "<>") as op) ], [ (_, a); (_, b) ]
            when is_structured a || is_structured b ->
            Rule.finding ctx rule ~loc:(apply_head f).pexp_loc
              (Printf.sprintf
                 "polymorphic (%s) on a structured value; use a typed \
                  equal"
                 op)
          | _ -> ())
        | _ -> ())
  in
  rule

(* --- R3: no-wildcard-message-match ---------------------------------- *)

let msg_modules = [ "Messages"; "Event" ]

let pattern_msg_module p =
  let found = ref None in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it pp ->
          (match pp.ppat_desc with
           | Ppat_construct ({ txt; _ }, _) -> (
             match List.rev (flatten txt) with
             | _ctor :: modpath when !found = None -> (
               match
                 List.find_opt (fun m -> List.mem m msg_modules) modpath
               with
               | Some m -> found := Some m
               | None -> ())
             | _ -> ())
           | _ -> ());
          Ast_iterator.default_iterator.pat it pp);
    }
  in
  it.pat it p;
  !found

let rec catch_all_sub p =
  match p.ppat_desc with
  | Ppat_any -> Some p
  | Ppat_or (a, b) -> (
    match catch_all_sub a with Some w -> Some w | None -> catch_all_sub b)
  | Ppat_alias (q, _) | Ppat_constraint (q, _) -> catch_all_sub q
  | _ -> None

let r3 =
  let rec rule =
    {
      Rule.id = "R3";
      name = "no-wildcard-message-match";
      summary =
        "no `_ ->` catch-alls in matches over message/event constructors; \
         every constructor must be handled explicitly";
      severity = Finding.Error;
      applies = (function Rule.Lib _ | Rule.Bin -> true | _ -> false);
      kind = Rule.Ast (fun ctx str -> check ctx str);
    }
  and check_cases ctx cases =
    let proper_cases =
      List.filter
        (fun c ->
          match c.pc_lhs.ppat_desc with Ppat_exception _ -> false | _ -> true)
        cases
    in
    match
      List.find_map (fun c -> pattern_msg_module c.pc_lhs) proper_cases
    with
    | None -> ()
    | Some m ->
      List.iter
        (fun c ->
          match catch_all_sub c.pc_lhs with
          | Some w ->
            Rule.finding ctx rule ~loc:w.ppat_loc
              (Printf.sprintf
                 "wildcard catch-all in a match over %s constructors; a \
                  new constructor would be dropped silently — handle every \
                  constructor explicitly"
                 m)
          | None -> ())
        proper_cases
  and check ctx str =
    iter_with_ancestors str (fun ~ancestors:_ e ->
        match e.pexp_desc with
        | Pexp_match (_, cases) | Pexp_function cases ->
          check_cases ctx cases
        | _ -> ())
  in
  rule

(* --- R4: no-partial-functions --------------------------------------- *)

let r4 =
  let rec rule =
    {
      Rule.id = "R4";
      name = "no-partial-functions";
      summary =
        "no List.hd/tl/nth, Option.get, computed Array.get or bare \
         failwith in protocol hot paths";
      severity = Finding.Warning;
      applies = (fun s -> in_libs hot_path_libs s || relaxed_scope s);
      kind = Rule.Ast (fun ctx str -> check ctx str);
    }
  and check ctx str =
    (* A partial call inside the scrutinee of a [match ... with exception]
       is handled; collect those scrutinee spans as we descend (the match
       node is visited before anything inside it). *)
    let handled_spans = ref [] in
    let handled loc =
      List.exists (fun outer -> loc_inside ~outer loc) !handled_spans
    in
    let flag loc msg = Rule.finding ctx rule ~loc msg in
    iter_with_ancestors str (fun ~ancestors:_ e ->
        (match e.pexp_desc with
         | Pexp_match (scrut, cases)
           when List.exists
                  (fun c ->
                    match c.pc_lhs.ppat_desc with
                    | Ppat_exception _ -> true
                    | _ -> false)
                  cases ->
           handled_spans := scrut.pexp_loc :: !handled_spans
         | _ -> ());
        match ident_path e with
        | Some [ "List"; (("hd" | "tl" | "nth") as fn) ]
          when not (handled e.pexp_loc) ->
          flag e.pexp_loc
            (Printf.sprintf
               "List.%s raises on %s; use a total alternative \
                (pattern-match, List.nth_opt, ...)"
               fn
               (if String.equal fn "nth" then "out-of-range indices"
                else "the empty list"))
        | Some [ "Option"; "get" ] when not (handled e.pexp_loc) ->
          flag e.pexp_loc
            "Option.get raises on None; pattern-match or use \
             Option.value ~default"
        | Some [ "failwith" ] when not (handled e.pexp_loc) ->
          flag e.pexp_loc
            "bare failwith in a protocol hot path; return a result or \
             handle the case totally"
        | _ -> (
          match e.pexp_desc with
          | Pexp_apply (f, (_ :: (_, idx) :: _ as _args)) -> (
            match (ident_path f, (apply_head f).pexp_loc.loc_ghost) with
            | Some [ "Array"; "get" ], false -> (
              match idx.pexp_desc with
              | Pexp_constant (Pconst_integer _) -> ()
              | _ ->
                if not (handled (apply_head f).pexp_loc) then
                  flag (apply_head f).pexp_loc
                    "Array.get on a computed index can raise; bound-check \
                     or restructure")
            | _ -> ())
          | _ -> ()))
  in
  rule

(* --- R5: mli-coverage ------------------------------------------------ *)

let r5 =
  let rule_applies = function Rule.Lib _ -> true | _ -> false in
  let rec rule =
    {
      Rule.id = "R5";
      name = "mli-coverage";
      summary = "every module under lib/ must have an .mli interface";
      severity = Finding.Warning;
      applies = rule_applies;
      kind = Rule.Tree (fun ~root files -> check ~root files);
    }
  and check ~root files =
    List.filter_map
      (fun (path, scope) ->
        if rule_applies scope && Filename.check_suffix path ".ml" then begin
          let mli = Filename.chop_suffix path ".ml" ^ ".mli" in
          if Sys.file_exists (Filename.concat root mli) then None
          else
            Some
              (Finding.v ~file:path ~line:1 ~col:0 ~rule:rule.Rule.id
                 ~severity:rule.Rule.severity
                 (Printf.sprintf
                    "module %s has no interface; add %s"
                    (String.capitalize_ascii
                       (Filename.chop_suffix (Filename.basename path) ".ml"))
                    mli))
        end
        else None)
      files
  in
  rule

let r6 = Domains_rule.r6

let r7 = Domains_rule.r7

let r8 = Domains_rule.r8

let r9 = Domains_rule.r9

let all = [ r1; r2; r3; r4; r5 ] @ Domains_rule.all

let by_id id = List.find_opt (fun r -> String.equal r.Rule.id id) all
