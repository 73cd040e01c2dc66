open Parsetree

(* --- AST helpers shared with the domain rules ------------------------ *)

let flatten lid = try Longident.flatten lid with _ -> []

let norm = function "Stdlib" :: rest -> rest | p -> p

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (norm (flatten txt))
  | _ -> None

let rec apply_head e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> apply_head f
  | _ -> e

let is_closure e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

let module_name file =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename file))

(* Every variable name bound by a pattern (including aliases). *)
let pat_vars p =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      pat =
        (fun it pp ->
          (match pp.ppat_desc with
          | Ppat_var { txt; _ } -> acc := txt :: !acc
          | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.pat it pp);
    }
  in
  it.pat it p;
  !acc

(* Free variables of an expression, approximated syntactically: every
   unqualified identifier used anywhere inside, minus every name bound
   by any pattern inside (function parameters, let bindings, match
   cases).  The approximation errs toward *fewer* captures (a shadowed
   outer name is not reported), which is the right direction for a
   lint: no false capture reports from shadowing. *)
let free_names e =
  let used = ref [] and bound = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it ee ->
          (match ee.pexp_desc with
          | Pexp_ident { txt = Longident.Lident x; _ } -> used := x :: !used
          | _ -> ());
          Ast_iterator.default_iterator.expr it ee);
      pat =
        (fun it pp ->
          (match pp.ppat_desc with
          | Ppat_var { txt; _ } -> bound := txt :: !bound
          | Ppat_alias (_, { txt; _ }) -> bound := txt :: !bound
          | _ -> ());
          Ast_iterator.default_iterator.pat it pp);
    }
  in
  it.expr it e;
  let bound = !bound in
  List.sort_uniq String.compare
    (List.filter (fun x -> not (List.mem x bound)) !used)

(* --- the mutable-state inventory ------------------------------------- *)

type kind =
  | Ref
  | Table
  | Buf
  | Queue_val
  | Stack_val
  | Array_val
  | Bytes_val
  | Mutable_record
  | Atomic_val
  | Mutex_val

let kind_to_string = function
  | Ref -> "ref"
  | Table -> "hashtbl"
  | Buf -> "buffer"
  | Queue_val -> "queue"
  | Stack_val -> "stack"
  | Array_val -> "array"
  | Bytes_val -> "bytes"
  | Mutable_record -> "mutable-record"
  | Atomic_val -> "atomic"
  | Mutex_val -> "mutex"

(* Atomics and mutexes are themselves synchronization devices: capturing
   one across a domain boundary is the sanctioned way to share. *)
let synchronized = function Atomic_val | Mutex_val -> true | _ -> false

type value = { name : string; kind : kind; line : int; col : int }

type verdict =
  | Local
  | Escapes_sync of int
  | Escapes_guarded of int * string
  | Escapes_unsync of int

type entry = { value : value; verdict : verdict }

type module_inventory = {
  file : string;
  module_name : string;
  entries : entry list;
  boundary_lines : int list;
}

type env = {
  boundary_fns : (string * string) list;
  record_types : (string list * string list) list;
}

let empty_env = { boundary_fns = []; record_types = [] }

(* --- domain boundaries ------------------------------------------------ *)

(* The primitives every boundary ultimately reaches. *)
let builtin_boundary path =
  match path with
  | [ "Domain"; "spawn" ] -> true
  | _ -> (
    match List.rev path with
    | ("map" | "map_checked" | "scatter") :: "Pool" :: _ -> true
    | _ -> false)

let is_boundary ~env ~self path =
  builtin_boundary path
  ||
  match path with
  | [ fn ] -> List.mem (self, fn) env.boundary_fns
  | _ -> (
    match List.rev path with
    | fn :: m :: _ -> List.mem (m, fn) env.boundary_fns
    | _ -> false)

(* Parameters of [let f p1 ... pn = body]: the names bound by the
   pattern chain of nested [Pexp_fun]s. *)
let binding_params vb =
  let rec go acc e =
    match e.pexp_desc with
    | Pexp_fun (_, _, pat, body) -> go (pat_vars pat @ acc) body
    | Pexp_newtype (_, body) -> go acc body
    | _ -> acc
  in
  go [] vb.pvb_expr

(* Does [body] apply a boundary function, forwarding at least one of
   [params] as an argument?  If so, the enclosing function inherits the
   boundary: closures handed to it may end up on another domain. *)
let forwards_to_boundary ~env ~self ~params body =
  let found = ref false in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            match ident_path (apply_head f) with
            | Some path when is_boundary ~env ~self path ->
              if
                List.exists
                  (fun (_, arg) ->
                    match arg.pexp_desc with
                    | Pexp_ident { txt = Longident.Lident x; _ } ->
                      List.mem x params
                    | _ -> false)
                  args
              then found := true
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.expr it body;
  !found

(* Each record type declared in [structure]: its labels, and those of
   them declared mutable. *)
let file_record_types structure =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      type_declaration =
        (fun it td ->
          (match td.ptype_kind with
          | Ptype_record labels ->
            let names ls = List.map (fun l -> l.pld_name.txt) ls in
            let mutable_ l = l.pld_mutable = Asttypes.Mutable in
            acc := (names labels, names (List.filter mutable_ labels)) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.type_declaration it td);
    }
  in
  it.structure it structure;
  !acc

(* One propagation pass: every binding in [structure] that forwards a
   parameter into a (currently known) boundary becomes a boundary
   function of module [self]. *)
let file_boundary_fns ~env ~self structure =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } ->
            let params = binding_params vb in
            if
              params <> []
              && forwards_to_boundary ~env ~self ~params vb.pvb_expr
            then acc := (self, name) :: !acc
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure;
  !acc

let compare_boundary (m1, f1) (m2, f2) =
  match String.compare m1 m2 with
  | 0 -> String.compare f1 f2
  | c -> c

let build_env files =
  let record_types =
    List.concat_map (fun (_, str) -> file_record_types str) files
  in
  (* Fixpoint: a function forwarding into a discovered boundary is
     itself a boundary (e.g. [Checker.check] -> [search_parallel] ->
     [Pool.map]).  The relation only grows and is bounded by the number
     of bindings, so this terminates quickly. *)
  let rec grow known =
    let next =
      List.fold_left
        (fun acc (file, str) ->
          let self = module_name file in
          let found =
            file_boundary_fns
              ~env:{ boundary_fns = known; record_types }
              ~self str
          in
          List.fold_left
            (fun acc b -> if List.mem b acc then acc else b :: acc)
            acc found)
        known files
    in
    if List.length next = List.length known then known else grow next
  in
  let boundary_fns = List.sort_uniq compare_boundary (grow []) in
  { boundary_fns; record_types }

(* --- mutable allocation classification -------------------------------- *)

(* A record literal allocates mutable state when a declared type holding
   all its labels has a mutable field.  When no scanned type holds them
   (a type from outside the tree), any label declared mutable anywhere
   counts. *)
let mutable_literal ~env labels =
  let holds (all, _) = List.for_all (fun l -> List.mem l all) labels in
  match List.filter holds env.record_types with
  | [] ->
    List.exists
      (fun l -> List.exists (fun (_, muts) -> List.mem l muts) env.record_types)
      labels
  | types -> List.exists (fun (_, muts) -> muts <> []) types

let rec alloc_kind ~env e =
  match e.pexp_desc with
  | Pexp_array _ -> Some Array_val
  | Pexp_record (fields, _)
    when let label ({ Location.txt; _ }, _) = Longident.last txt in
         mutable_literal ~env (List.map label fields) ->
    Some Mutable_record
  | Pexp_let (_, _, body)
  | Pexp_sequence (_, body)
  | Pexp_constraint (body, _)
  | Pexp_open (_, body) ->
    alloc_kind ~env body
  | Pexp_ifthenelse (_, a, b) -> (
    match alloc_kind ~env a with
    | Some k -> Some k
    | None -> Option.bind b (alloc_kind ~env))
  | Pexp_match (_, cases) ->
    List.find_map (fun c -> alloc_kind ~env c.pc_rhs) cases
  | Pexp_apply (f, _) -> (
    match ident_path f with
    | Some [ "ref" ] -> Some Ref
    | Some [ "Hashtbl"; ("create" | "copy" | "of_seq") ] -> Some Table
    | Some [ "Buffer"; "create" ] -> Some Buf
    | Some [ "Queue"; ("create" | "copy") ] -> Some Queue_val
    | Some [ "Stack"; ("create" | "copy") ] -> Some Stack_val
    | Some
        [
          "Array";
          ( "make" | "create_float" | "init" | "copy" | "of_list" | "append"
          | "concat" | "sub" | "map" | "mapi" | "make_matrix" );
        ] ->
      Some Array_val
    | Some [ "Bytes"; ("create" | "make" | "copy" | "of_string" | "init" | "sub") ]
      ->
      Some Bytes_val
    | Some [ "Atomic"; "make" ] -> Some Atomic_val
    | Some [ "Mutex"; "create" ] -> Some Mutex_val
    | _ -> None)
  | _ -> None

(* --- per-file analysis ------------------------------------------------ *)

type capture = { closure_line : int; names : string list }

(* All boundary call sites of one file, each with the free names of the
   literal closures handed to it. *)
let boundary_captures ~env ~self structure =
  let sites = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            match ident_path (apply_head f) with
            | Some path when is_boundary ~env ~self path ->
              let line = (apply_head f).pexp_loc.loc_start.pos_lnum in
              List.iter
                (fun (_, arg) ->
                  if is_closure arg then
                    sites :=
                      {
                        closure_line = arg.pexp_loc.loc_start.pos_lnum;
                        names = free_names arg;
                      }
                      :: !sites
                  else ())
                args;
              (* a boundary with no literal closure still counts as a
                 boundary site for the inventory *)
              if not (List.exists (fun (_, a) -> is_closure a) args) then
                sites := { closure_line = line; names = [] } :: !sites
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  List.rev !sites

(* The literal closure expressions handed to boundary calls — R8/R9
   inspect their bodies directly. *)
let boundary_closures ~env ~self structure =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_apply (f, args) -> (
            match ident_path (apply_head f) with
            | Some path when is_boundary ~env ~self path ->
              List.iter
                (fun (_, arg) -> if is_closure arg then acc := arg :: !acc)
                args
            | _ -> ())
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  it.structure it structure;
  List.rev !acc

let file_values ~env structure =
  let acc = ref [] in
  let it =
    {
      Ast_iterator.default_iterator with
      value_binding =
        (fun it vb ->
          (match vb.pvb_pat.ppat_desc with
          | Ppat_var { txt = name; _ } -> (
            match alloc_kind ~env vb.pvb_expr with
            | Some kind ->
              let pos = vb.pvb_pat.ppat_loc.loc_start in
              acc :=
                {
                  name;
                  kind;
                  line = pos.Lexing.pos_lnum;
                  col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
                }
                :: !acc
            | None -> ())
          | _ -> ());
          Ast_iterator.default_iterator.value_binding it vb);
    }
  in
  it.structure it structure;
  List.rev !acc

let analyze ~env ?(sanctioned = []) ~file structure =
  let self = module_name file in
  let captures = boundary_captures ~env ~self structure in
  let values = file_values ~env structure in
  let entries =
    List.map
      (fun v ->
        let caught =
          List.filter (fun c -> List.mem v.name c.names) captures
        in
        let verdict =
          match caught with
          | [] -> Local
          | _ :: _ -> (
            let line =
              List.fold_left
                (fun m c -> min m c.closure_line)
                max_int caught
            in
            if synchronized v.kind then Escapes_sync line
            else
              match
                List.find_opt
                  (fun (f, n, _) ->
                    String.equal f file && String.equal n v.name)
                  sanctioned
              with
              | Some (_, _, reason) -> Escapes_guarded (line, reason)
              | None -> Escapes_unsync line)
        in
        { value = v; verdict })
      values
  in
  let entries =
    List.sort
      (fun a b ->
        match Int.compare a.value.line b.value.line with
        | 0 -> String.compare a.value.name b.value.name
        | c -> c)
      entries
  in
  {
    file;
    module_name = self;
    entries;
    boundary_lines =
      List.sort_uniq Int.compare
        (List.map (fun c -> c.closure_line) captures);
  }
