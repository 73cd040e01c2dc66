(** Mutable-state inventory and domain-boundary escape analysis.

    Builds, per module, the list of locally-allocated mutable values
    (refs, hash tables, buffers, queues, stacks, arrays, bytes, mutable
    records, atomics, mutexes) and decides for each whether it is
    captured by a closure that flows into a domain boundary —
    [Domain.spawn], [Parallel.Pool.map]/[map_checked], or any function
    discovered (by interprocedural fixpoint) to forward its closure
    arguments into one of those. *)

(** {1 AST helpers shared with the domain rules} *)

val flatten : Longident.t -> string list
val norm : string list -> string list
val ident_path : Parsetree.expression -> string list option
val apply_head : Parsetree.expression -> Parsetree.expression
val is_closure : Parsetree.expression -> bool
val free_names : Parsetree.expression -> string list
val module_name : string -> string

(** {1 Inventory} *)

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

val kind_to_string : kind -> string

val synchronized : kind -> bool
(** Atomics and mutexes are themselves synchronization devices. *)

type value = { name : string; kind : kind; line : int; col : int }

type verdict =
  | Local  (** never crosses a domain boundary *)
  | Escapes_sync of int  (** captured at line, but the value synchronizes *)
  | Escapes_guarded of int * string
      (** captured at line, sanctioned by the typed allowlist (reason) *)
  | Escapes_unsync of int  (** captured at line with no synchronization *)

type entry = { value : value; verdict : verdict }

type module_inventory = {
  file : string;
  module_name : string;
  entries : entry list;
  boundary_lines : int list;
      (** lines holding a boundary call or a closure handed to one *)
}

(** {1 Whole-tree environment} *)

type env = {
  boundary_fns : (string * string) list;
      (** (Module, function) pairs that forward closures across domains *)
  record_types : (string list * string list) list;
      (** each declared record type's labels, and those declared mutable *)
}

val empty_env : env

val builtin_boundary : string list -> bool

val is_boundary : env:env -> self:string -> string list -> bool
(** [self] is the module being analyzed, for unqualified calls. *)

val build_env : (string * Parsetree.structure) list -> env
(** Fixpoint over all parsed files: a function whose body forwards a
    parameter into a known boundary becomes a boundary itself. *)

val boundary_closures :
  env:env -> self:string -> Parsetree.structure -> Parsetree.expression list
(** The literal closure expressions handed to boundary calls in one
    file, in source order. *)

val alloc_kind : env:env -> Parsetree.expression -> kind option
(** Classify the right-hand side of a [let] as a mutable allocation (a
    record literal by the declared types holding all its labels). *)

val analyze :
  env:env ->
  ?sanctioned:(string * string * string) list ->
  file:string ->
  Parsetree.structure ->
  module_inventory
(** [analyze ~env ~sanctioned ~file ast] — [sanctioned] is the typed
    allowlist of [(file, value_name, reason)] triples. *)
