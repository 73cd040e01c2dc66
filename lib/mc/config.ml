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

let byz_to_json byz =
  Obs.Json.List
    (List.map
       (fun (slot, k) ->
         match k with
         | Silent ->
           Obs.Json.Obj
             [ ("slot", Obs.Json.Int slot); ("kind", Obs.Json.Str "silent") ]
         | Collude { sn; v } ->
           Obs.Json.Obj
             [
               ("slot", Obs.Json.Int slot);
               ("kind", Obs.Json.Str "collude");
               ("sn", Obs.Json.Int sn);
               ("v", Obs.Json.Int v);
             ])
       byz)

let corruption_to_json = function
  | Corrupt_server { server; sn; v } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.Str "server");
        ("server", Obs.Json.Int server);
        ("sn", Obs.Json.Int sn);
        ("v", Obs.Json.Int v);
      ]
  | Corrupt_reader { pwsn; v } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.Str "reader");
        ("pwsn", Obs.Json.Int pwsn);
        ("v", Obs.Json.Int v);
      ]
  | Corrupt_writer_sn sn ->
    Obs.Json.Obj [ ("kind", Obs.Json.Str "writer"); ("sn", Obs.Json.Int sn) ]
  | Corrupt_round { client; round } ->
    Obs.Json.Obj
      [
        ("kind", Obs.Json.Str "round");
        ("client", Obs.Json.Int client);
        ("round", Obs.Json.Int round);
      ]
  | Crash_recover { server } ->
    Obs.Json.Obj
      [ ("kind", Obs.Json.Str "crashrec"); ("server", Obs.Json.Int server) ]

let to_json c =
  Obs.Json.Obj
    [
      ("family", Obs.Json.Str (Oracles.Stabilization.family_to_string c.family));
      ("n", Obs.Json.Int c.n);
      ("f", Obs.Json.Int c.f);
      ("byz", byz_to_json c.byz);
      ("writes", Obs.Json.Int c.writes);
      ("reads", Obs.Json.Int c.reads);
      ("read_budget", Obs.Json.Int c.read_budget);
      ("menu", Obs.Json.List (List.map corruption_to_json c.menu));
      ("oracle", Obs.Json.Str (oracle_to_string c.oracle));
    ]

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

let of_json j =
  let open Obs.Json in
  let ctx = "config" in
  let* family = str_field ctx "family" j in
  let* family = Oracles.Stabilization.family_of_string family in
  let* n = int_field ctx "n" j in
  let* f = int_field ctx "f" j in
  let* byz = list_field ctx "byz" byz_of_json j in
  let* writes = int_field ctx "writes" j in
  let* reads = int_field ctx "reads" j in
  let* read_budget = int_field ctx "read_budget" j in
  let* menu = list_field ctx "menu" corruption_of_json j in
  let* oracle = str_field ctx "oracle" j in
  let* oracle = oracle_of_string oracle in
  let c = { family; n; f; byz; writes; reads; read_budget; menu; oracle } in
  let* () = validate c in
  Ok c
