type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

let v ~file ~line ~col ~rule ~severity message =
  { file; line; col; rule; severity; message }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> (
        match String.compare a.rule b.rule with
        | 0 -> String.compare a.message b.message
        | c -> c)
      | c -> c)
    | c -> c)
  | c -> c

let severity_to_string = function Error -> "error" | Warning -> "warning"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | _ -> None

let to_json t =
  Obs.Json.Obj
    [
      ("file", Obs.Json.Str t.file);
      ("line", Obs.Json.Int t.line);
      ("col", Obs.Json.Int t.col);
      ("rule", Obs.Json.Str t.rule);
      ("severity", Obs.Json.Str (severity_to_string t.severity));
      ("message", Obs.Json.Str t.message);
    ]

let of_json ctx j =
  let open Obs.Json in
  let* file = str_field ctx "file" j in
  let* line = int_field ctx "line" j in
  let* col = int_field ctx "col" j in
  let* rule = str_field ctx "rule" j in
  let* sev = str_field ctx "severity" j in
  let* severity =
    match severity_of_string sev with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "%s: unknown severity %S" ctx sev)
  in
  let* message = str_field ctx "message" j in
  Ok { file; line; col; rule; severity; message }

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d: [%s] %s: %s" t.file t.line t.col t.rule
    (severity_to_string t.severity)
    t.message

let to_string t = Format.asprintf "%a" pp t
