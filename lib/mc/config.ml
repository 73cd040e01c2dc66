type family = Oracles.Stabilization.family = Regular | Atomic | Mwmr

type byz_kind = Silent | Collude of { sn : int; v : int }

type corruption =
  | Corrupt_server of { server : int; sn : int; v : int }
  | Corrupt_reader of { pwsn : int; v : int }
  | Corrupt_writer_sn of int
  | Corrupt_round of { client : int; round : int }
  | Crash_recover of { server : int }

type oracle = Family_default | Atomic_oracle

let oracle_to_string = function
  | Family_default -> "default"
  | Atomic_oracle -> "atomic"

let oracle_of_string = function
  | "default" -> Ok Family_default
  | "atomic" -> Ok Atomic_oracle
  | s -> Error (Printf.sprintf "unknown oracle %S" s)

type t = {
  family : family;
  n : int;
  f : int;
  byz : (int * byz_kind) list;
  writes : int;
  reads : int;
  read_budget : int;
  menu : corruption list;
  oracle : oracle;
}

let client_ids = function
  | Regular | Atomic -> [ 100; 101 ]
  | Mwmr -> [ 300; 301 ]

let default ~family =
  {
    family;
    n = 9;
    f = 1;
    byz = [];
    writes = 1;
    reads = 1;
    read_budget = 8;
    menu = [];
    oracle = Family_default;
  }

let validate c =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if c.n < 1 then err "n must be positive"
  else if c.f < 0 then err "f must be non-negative"
  else if c.writes < 0 || c.reads < 0 then err "writes/reads must be non-negative"
  else if c.read_budget < 1 then err "read_budget must be positive"
  else if
    List.exists (fun (slot, _) -> slot < 0 || slot >= c.n) c.byz
  then err "byzantine slot out of range"
  else if
    List.length (List.sort_uniq Int.compare (List.map fst c.byz))
    <> List.length c.byz
  then err "duplicate byzantine slot"
  else if
    c.family <> Atomic
    && List.exists
         (function
           | Corrupt_reader _ | Corrupt_writer_sn _ -> true | _ -> false)
         c.menu
  then err "reader/writer corruption items require the atomic family"
  else if
    List.exists
      (function
        | Corrupt_server { server; _ } | Crash_recover { server } ->
          server < 0 || server >= c.n
        | _ -> false)
      c.menu
  then err "corruption target server out of range"
  else
    match
      List.find_opt
        (function
          | Corrupt_round { client; _ } -> not (List.mem client (client_ids c.family))
          | _ -> false)
        c.menu
    with
    | Some (Corrupt_round { client; _ }) ->
      err "round corruption names client %d, which the %s family lacks" client
        (Oracles.Stabilization.family_to_string c.family)
    | _ -> Ok ()

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)

let byz_to_json (slot, k) =
  let open Obs.Json in
  let byz kind members =
    Obj (("slot", Int slot) :: ("kind", Str kind) :: members)
  in
  match k with
  | Silent -> byz "silent" []
  | Collude { sn; v } -> byz "collude" [ ("sn", Int sn); ("v", Int v) ]

let corruption_to_json c =
  let open Obs.Json in
  let item kind members = Obj (("kind", Str kind) :: members) in
  match c with
  | Corrupt_server { server; sn; v } ->
    item "server" [ ("server", Int server); ("sn", Int sn); ("v", Int v) ]
  | Corrupt_reader { pwsn; v } ->
    item "reader" [ ("pwsn", Int pwsn); ("v", Int v) ]
  | Corrupt_writer_sn sn -> item "writer" [ ("sn", Int sn) ]
  | Corrupt_round { client; round } ->
    item "round" [ ("client", Int client); ("round", Int round) ]
  | Crash_recover { server } -> item "crashrec" [ ("server", Int server) ]

let byz_of_json ctx item =
  let open Obs.Json in
  let* slot = int_field ctx "slot" item in
  let* kind = str_field ctx "kind" item in
  match kind with
  | "silent" -> Ok (slot, Silent)
  | "collude" ->
    let* sn = int_field ctx "sn" item in
    let* v = int_field ctx "v" item in
    Ok (slot, Collude { sn; v })
  | s -> Error (Printf.sprintf "%s: unknown byzantine kind %S" ctx s)

let corruption_of_json ctx item =
  let open Obs.Json in
  let* kind = str_field ctx "kind" item in
  match kind with
  | "server" ->
    let* server = int_field ctx "server" item in
    let* sn = int_field ctx "sn" item in
    let* v = int_field ctx "v" item in
    Ok (Corrupt_server { server; sn; v })
  | "reader" ->
    let* pwsn = int_field ctx "pwsn" item in
    let* v = int_field ctx "v" item in
    Ok (Corrupt_reader { pwsn; v })
  | "writer" ->
    let* sn = int_field ctx "sn" item in
    Ok (Corrupt_writer_sn sn)
  | "round" ->
    let* client = int_field ctx "client" item in
    let* round = int_field ctx "round" item in
    Ok (Corrupt_round { client; round })
  | "crashrec" ->
    let* server = int_field ctx "server" item in
    Ok (Crash_recover { server })
  | s -> Error (Printf.sprintf "%s: unknown corruption kind %S" ctx s)

let codec () =
  Obs.Json.(
    record
      (fun family n f byz writes reads read_budget menu oracle ->
        { family; n; f; byz; writes; reads; read_budget; menu; oracle })
    |> field "family"
         (enum Oracles.Stabilization.family_to_string
            Oracles.Stabilization.family_of_string)
         (fun c -> c.family)
    |> field "n" int (fun c -> c.n)
    |> field "f" int (fun c -> c.f)
    |> field "byz" (list (codec byz_to_json byz_of_json)) (fun c -> c.byz)
    |> field "writes" int (fun c -> c.writes)
    |> field "reads" int (fun c -> c.reads)
    |> field "read_budget" int (fun c -> c.read_budget)
    |> field "menu" (list (codec corruption_to_json corruption_of_json))
         (fun c -> c.menu)
    |> field "oracle" (enum oracle_to_string oracle_of_string) (fun c ->
           c.oracle)
    |> seal ~check:validate)

let to_json c = Obs.Json.encode (codec ()) c

let of_json j = Obs.Json.decode (codec ()) "config" j
