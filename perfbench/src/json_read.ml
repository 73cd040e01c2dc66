let ( let* ) = Result.bind

let file path =
  match open_in_bin path with
  | exception Sys_error e -> Error e
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    Result.map_error (fun e -> path ^ ": " ^ e) (Obs.Json.parse s)

let field name j =
  Option.to_result ~none:(Printf.sprintf "missing field %S" name) (Obs.Json.member name j)

let typed what conv name j =
  let* v = field name j in
  Option.to_result ~none:(Printf.sprintf "%S: expected %s" name what) (conv v)

let list = typed "a list" Obs.Json.to_list_opt

let obj = typed "an object" Obs.Json.to_obj_opt

let string = typed "a string" Obs.Json.to_string_opt

let int = typed "an integer" Obs.Json.to_int_opt

let float = typed "a number" Obs.Json.to_float_opt

let bool = typed "a boolean" (function Obs.Json.Bool b -> Some b | _ -> None)

let all_ok f l =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    l (Ok [])
