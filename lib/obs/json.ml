type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.17g" x in
    (* A bare integral rendering would round-trip as Int; force a float
       marker so the tree survives print/parse unchanged. *)
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float x -> Buffer.add_string buf (float_repr x)
  | Str s -> escape buf s
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        write buf item)
      items;
    Buffer.add_char buf ']'
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape buf k;
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  write buf j;
  Buffer.contents buf

(* Indented rendering, for files meant to be read and diffed by humans. *)
let to_string_pretty j =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | Str _) as atom -> write buf atom
    | List [] -> Buffer.add_string buf "[]"
    | List items ->
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          go (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf ']'
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          pad (indent + 2);
          escape buf k;
          Buffer.add_string buf ": ";
          go (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      pad indent;
      Buffer.add_char buf '}'
  in
  go 0 j;
  Buffer.contents buf

(* --- parsing --- *)

exception Parse_error of string

let parse_exn s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "at %d: %s" !pos msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          (if !pos >= n then fail "unterminated escape"
           else
             match s.[!pos] with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'n' -> Buffer.add_char buf '\n'
             | 'r' -> Buffer.add_char buf '\r'
             | 't' -> Buffer.add_char buf '\t'
             | 'u' ->
               if !pos + 4 >= n then fail "truncated \\u escape";
               let hex = String.sub s (!pos + 1) 4 in
               let code =
                 try int_of_string ("0x" ^ hex)
                 with _ -> fail "bad \\u escape"
               in
               (* Only the Latin-1 range is produced by our own writer. *)
               if code < 0x100 then Buffer.add_char buf (Char.chr code)
               else Buffer.add_char buf '?';
               pos := !pos + 4
             | c -> fail (Printf.sprintf "bad escape %C" c));
          advance ();
          go ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let rec go () =
      match peek () with
      | Some ('0' .. '9' | '-' | '+') ->
        advance ();
        go ()
      | Some ('.' | 'e' | 'E') ->
        is_float := true;
        advance ();
        go ()
      | _ -> ()
    in
    go ();
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some x -> Float x
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some x -> Float x
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            items := parse_value () :: !items;
            go ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        let rec go () =
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            fields := field () :: !fields;
            go ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !fields)
      end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let parse s =
  match parse_exn s with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_float_opt = function
  | Float x -> Some x
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_string_opt = function Str s -> Some s | _ -> None

let to_list_opt = function List l -> Some l | _ -> None

let to_obj_opt = function Obj fields -> Some fields | _ -> None

(* --- decoding --- *)

type 'a decoder = string -> t -> ('a, string) result

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let expected what conv ctx j =
  match conv j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s: expected %s" ctx what)

let as_int ctx j = expected "an integer" to_int_opt ctx j

let as_float ctx j = expected "a number" to_float_opt ctx j

let as_string ctx j = expected "a string" to_string_opt ctx j

let as_bool ctx j =
  expected "a boolean" (function Bool b -> Some b | _ -> None) ctx j

let as_obj ctx j = expected "an object" to_obj_opt ctx j

let missing ctx key = Error (Printf.sprintf "%s: missing field %S" ctx key)

let required ctx key j =
  match member key j with Some v -> Ok v | None -> missing ctx key

let decode_field decode ctx key j =
  let* v = required ctx key j in
  decode (ctx ^ "." ^ key) v

let int_field ctx key j = decode_field as_int ctx key j

let str_field ctx key j = decode_field as_string ctx key j

let float_field ctx key j = decode_field as_float ctx key j

let map_result f items =
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* x = f item in
      Ok (x :: acc))
    (Ok []) items
  |> Result.map List.rev

let as_list decode ctx j =
  let* items = expected "a list" to_list_opt ctx j in
  map_result
    (fun (i, item) -> decode (Printf.sprintf "%s[%d]" ctx i) item)
    (List.mapi (fun i item -> (i, item)) items)

let list_field ctx key decode j = decode_field (as_list decode) ctx key j

let opt_field ctx key decode j =
  match member key j with
  | None | Some Null -> Ok None
  | Some v -> Result.map Option.some (decode (ctx ^ "." ^ key) v)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | List x, List y -> List.equal equal x y
  | Obj x, Obj y ->
    List.equal (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | (Null | Bool _ | Int _ | Float _ | Str _ | List _ | Obj _), _ -> false

(* --- codecs --- *)

type 'a codec = {
  enc : 'a -> t;
  dec : 'a decoder;
  absent : 'a option;  (* what a missing member decodes to *)
}

let codec enc dec = { enc; dec; absent = None }

let encode c = c.enc

let members c x = match c.enc x with Obj ms -> ms | _ -> []

let decode c = c.dec

let int = codec (fun i -> Int i) as_int

let at_least lo what =
  codec (fun i -> Int i) (fun ctx j ->
      let* i = as_int ctx j in
      if i >= lo then Ok i
      else Error (Printf.sprintf "%s: expected %s" ctx what))

let nat = at_least 0 "a non-negative integer"

let pos = at_least 1 "a positive integer"

let float = codec (fun x -> Float x) as_float

let bool = codec (fun b -> Bool b) as_bool

let string = codec (fun s -> Str s) as_string

let list c = codec (fun xs -> List (List.map c.enc xs)) (as_list c.dec)

let nullable c =
  let dec ctx = function
    | Null -> Ok None
    | j -> Result.map Option.some (c.dec ctx j)
  in
  { enc = Option.fold ~none:Null ~some:c.enc; dec; absent = Some None }

let assoc c =
  let dec ctx j =
    let* members = as_obj ctx j in
    map_result
      (fun (name, v) ->
        Result.map (fun x -> (name, x)) (c.dec (ctx ^ "." ^ name) v))
      members
  in
  codec (fun ms -> Obj (List.map (fun (name, x) -> (name, c.enc x)) ms)) dec

let raw = codec Fun.id (fun _ j -> Ok j)

let enum to_string of_string =
  codec (fun x -> Str (to_string x)) (fun ctx j ->
      let* s = as_string ctx j in
      Result.map_error (fun e -> ctx ^ ": " ^ e) (of_string s))

(* A record under construction: its members' encoders in reverse order,
   the decoder of the constructor applied to the members so far, and the
   [derived] comparisons to run on the decoded record. *)
type ('r, 'k) fields = {
  members : ('r -> string * t) list;
  build : string -> t -> ('k, string) result;
  agree : string -> t -> 'r -> (unit, string) result;
}

let record ctor =
  { members = []; build = (fun _ _ -> Ok ctor); agree = (fun _ _ _ -> Ok ()) }

let field ?default name c get b =
  let value ctx j =
    match (member name j, default, c.absent) with
    | (None | Some Null), Some d, _ | None, None, Some d -> Ok d
    | None, None, None -> missing ctx name
    | Some v, _, _ -> c.dec (ctx ^ "." ^ name) v
  in
  let build ctx j =
    let* k = b.build ctx j in
    Result.map k (value ctx j)
  in
  { b with members = (fun r -> (name, c.enc (get r))) :: b.members; build }

let derived name c get b =
  let agree ctx j r =
    let* () = b.agree ctx j r in
    let* v = decode_field c.dec ctx name j in
    if equal (c.enc v) (c.enc (get r)) then Ok ()
    else
      Error (Printf.sprintf "%s.%s: disagrees with the other members" ctx name)
  in
  { b with members = (fun r -> (name, c.enc (get r))) :: b.members; agree }

let seal ?(check = fun _ -> Ok ()) b =
  codec
    (fun r -> Obj (List.rev_map (fun m -> m r) b.members))
    (fun ctx j ->
      let* _ = as_obj ctx j in
      let* r = b.build ctx j in
      let* () = b.agree ctx j r in
      Result.map (fun () -> r) (check r))

let with_schema name c =
  let enc x =
    match c.enc x with Obj ms -> Obj (("schema", Str name) :: ms) | j -> j
  in
  codec enc (fun ctx j ->
      let* got = str_field ctx "schema" j in
      if String.equal got name then c.dec ctx j
      else
        Error
          (Printf.sprintf "%s: schema mismatch: got %S, want %S" ctx got name))
