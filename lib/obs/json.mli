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

    The vocabulary of the hand-written decoders a {!codec} wraps: tagged
    unions and the Chrome export.  A context string names where in the
    document a value sits (["config"], ["repro.schedule[2]"]); errors
    read ["<ctx>: missing field \"k\""] or ["<ctx>.k: expected an integer"]. *)

type 'a decoder = string -> t -> ('a, string) result
(** Decode one value found at the given context. *)

val ( let* ) :
  ('a, 'e) result -> ('a -> ('b, 'e) result) -> ('b, 'e) result
(** [Result.bind], in scope wherever a decoder does [let open Obs.Json]. *)

val as_int : int decoder

val as_list : 'a decoder -> 'a list decoder
(** Each item decoded at context ["<ctx>[i]"]. *)

val required : string -> string -> t -> (t, string) result
(** [required ctx key j] is the member [key] of [j], present with any
    value. *)

val int_field : string -> string -> t -> (int, string) result

val str_field : string -> string -> t -> (string, string) result

val float_field : string -> string -> t -> (float, string) result
(** Accepts both [Float] and [Int]. *)

val list_field :
  string -> string -> 'a decoder -> t -> ('a list, string) result
(** A list member, each item decoded at context ["<ctx>.<key>[i]"]. *)

val opt_field :
  string -> string -> 'a decoder -> t -> ('a option, string) result
(** An optional member: absent or [null] gives [None]. *)

(** {1 Codecs}

    One declaration gives both directions of a JSON shape: an encoder,
    and a decoder that threads the context string as above.  A record is
    declared member by member, in the order the encoder writes them:

    {[
      let crash_codec () =
        Obs.Json.(
          record (fun at server down_for -> { at; server; down_for })
          |> field "at" int (fun c -> c.at)
          |> field "server" int (fun c -> c.server)
          |> field "down_for" (nullable int) (fun c -> c.down_for)
          |> seal)

      let to_json c = Obs.Json.encode (crash_codec ()) c
    ]}

    The decoder reads the members in that order, so an error names the
    first bad one.  Members it does not know are ignored.

    A record codec is declared as a function of [unit] and built where it
    is used.  Building one allocates a few closures per member; as a
    top-level value it would be built at start-up by every program that
    links its module, and that start-up data alone measurably raised a
    simulator run's peak heap. *)

type 'a codec

val codec : ('a -> t) -> 'a decoder -> 'a codec
(** Wrap a hand-written pair, such as a tagged union's. *)

val encode : 'a codec -> 'a -> t

val members : 'a codec -> 'a -> (string * t) list
(** The members of an object encoding ([[]] for any other value), for
    splicing a record's members into a larger object. *)

val decode : 'a codec -> 'a decoder
(** [decode c ctx j]: errors name [ctx] and the path below it. *)

val int : int codec

val nat : int codec
(** An integer [>= 0]. *)

val pos : int codec
(** An integer [>= 1]. *)

val float : float codec
(** Decodes both [Float] and [Int]. *)

val bool : bool codec

val string : string codec

val list : 'a codec -> 'a list codec
(** Each item decoded at context ["<ctx>[i]"]. *)

val nullable : 'a codec -> 'a option codec
(** [None] is [null].  As a record member, an absent member decodes to
    [None] too. *)

val assoc : 'a codec -> (string * 'a) list codec
(** An object used as an ordered map: member order is kept, each value
    decoded at context ["<ctx>.<name>"]. *)

val raw : t codec
(** Any JSON value, passed through as it is. *)

val enum : ('a -> string) -> (string -> ('a, string) result) -> 'a codec
(** A value written as one string; [of_string] must invert [to_string].
    Its error is prefixed with the context. *)

type ('r, 'k) fields
(** A record codec under construction: ['r] is the record, ['k] what the
    constructor still needs. *)

val record : 'k -> ('r, 'k) fields
(** Start from the constructor, taking the members in order. *)

val field :
  ?default:'a ->
  string ->
  'a codec ->
  ('r -> 'a) ->
  ('r, 'a -> 'k) fields ->
  ('r, 'k) fields
(** [field name c get]: the member [name], written from [get r].  With
    [~default], a member that is absent or [null] decodes to it (for
    members that older artifacts lack); the encoder always writes the
    member. *)

val derived :
  string -> 'a codec -> ('r -> 'a) -> ('r, 'k) fields -> ('r, 'k) fields
(** A member computed from the others: written from [get r], and on
    decoding it must be present and re-encode exactly as [get] of the
    decoded record does. *)

val seal : ?check:('r -> (unit, string) result) -> ('r, 'r) fields -> 'r codec
(** Finish a record.  The decoder wants an object, then runs the
    [derived] comparisons and [check], a cross-member validation whose
    error is returned as it is. *)

val with_schema : string -> 'a codec -> 'a codec
(** A versioned artifact: the encoder puts ["schema": name] first, the
    decoder checks it before anything else. *)

val equal : t -> t -> bool
