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
  | "error" -> Ok Error
  | "warning" -> Ok Warning
  | s -> Stdlib.Error (Printf.sprintf "unknown severity %S" s)

let codec () =
  Obs.Json.(
    record (fun file line col rule severity message ->
        { file; line; col; rule; severity; message })
    |> field "file" string (fun t -> t.file)
    |> field "line" int (fun t -> t.line)
    |> field "col" int (fun t -> t.col)
    |> field "rule" string (fun t -> t.rule)
    |> field "severity" (enum severity_to_string severity_of_string) (fun t ->
           t.severity)
    |> field "message" string (fun t -> t.message)
    |> seal)

let pp ppf t =
  Format.fprintf ppf "%s:%d:%d: [%s] %s: %s" t.file t.line t.col t.rule
    (severity_to_string t.severity)
    t.message

let to_string t = Format.asprintf "%a" pp t
