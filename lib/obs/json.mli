(** A minimal JSON tree, printer, parser and decoding vocabulary.

    The observability layer serializes traces, metrics and run reports
    without adding a dependency on an external JSON package.  Every
    versioned artifact is decoded with the combinators below, so a
    malformed document fails with the same error shape whatever its
    schema. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact rendering.  Non-finite floats render as [null]; integral
    floats keep a [".0"] marker so printing and re-parsing preserves the
    Int/Float distinction. *)

val to_string_pretty : t -> string
(** Two-space indented rendering, for report files meant to be diffed. *)

exception Parse_error of string

val parse_exn : string -> t
(** Raises {!Parse_error}. *)

val parse : string -> (t, string) result

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on anything else. *)

val to_int_opt : t -> int option

val to_float_opt : t -> float option
(** Accepts both [Float] and [Int]. *)

val to_string_opt : t -> string option

val to_list_opt : t -> t list option

val to_obj_opt : t -> (string * t) list option

(** {1 Decoding}

    The vocabulary every artifact decoder is written in.  A context
    string names where in the document a value sits (["config"],
    ["repro.schedule[2]"]); errors read ["<ctx>: missing field \"k\""]
    or ["<ctx>.k: expected an integer"]. *)

type 'a decoder = string -> t -> ('a, string) result
(** Decode one value found at the given context. *)

val ( let* ) :
  ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** [Result.bind], in scope wherever a decoder does [let open Obs.Json]. *)

val as_int : int decoder

val as_string : string decoder

val as_list : 'a decoder -> 'a list decoder
(** Each item decoded at context ["<ctx>[i]"]. *)

val field : string -> string -> t -> (t, string) result
(** [field ctx key j] is the member [key] of [j], present with any
    value. *)

val int_field : string -> string -> t -> (int, string) result

val str_field : string -> string -> t -> (string, string) result

val float_field : string -> string -> t -> (float, string) result
(** Accepts both [Float] and [Int]. *)

val bool_field : string -> string -> t -> (bool, string) result

val list_field :
  string -> string -> 'a decoder -> t -> ('a list, string) result
(** A list member, each item decoded at context ["<ctx>.<key>[i]"]. *)

val obj_field :
  string -> string -> 'a decoder -> t -> ((string * 'a) list, string) result
(** An object member, each value decoded at context
    ["<ctx>.<key>.<name>"]; member order is kept. *)

val opt_field :
  string -> string -> 'a decoder -> t -> ('a option, string) result
(** An optional member: absent or [null] gives [None]. *)

val expect_schema : string -> string -> t -> (unit, string) result
(** [expect_schema ctx want j]: the ["schema"] member is the string
    [want]. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
