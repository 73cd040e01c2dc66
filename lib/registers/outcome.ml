type reason = {
  attempts : int;
  acks : int;
  need : int;
  suspects : int list;
}

type 'a t = Ok of 'a | Degraded of reason | Timed_out of reason

let no_reason = { attempts = 0; acks = 0; need = 0; suspects = [] }

let is_ok = function Ok _ -> true | Degraded _ | Timed_out _ -> false

let to_option = function Ok v -> Some v | Degraded _ | Timed_out _ -> None

let map f = function
  | Ok v -> Ok (f v)
  | Degraded r -> Degraded r
  | Timed_out r -> Timed_out r

let reason = function
  | Ok _ -> None
  | Degraded r | Timed_out r -> Some r

let rank = function Ok _ -> 0 | Degraded _ -> 1 | Timed_out _ -> 2

let kind = function
  | Ok _ -> "ok"
  | Degraded _ -> "degraded"
  | Timed_out _ -> "timeout"

(* Merge two failure diagnoses: the deepest retry effort, the weakest
   service level actually seen, the union of suspicions. *)
let merge_reason a b =
  {
    attempts = Int.max a.attempts b.attempts;
    acks = Int.min a.acks b.acks;
    need = Int.max a.need b.need;
    suspects = List.sort_uniq Int.compare (a.suspects @ b.suspects);
  }

(* Worst of two outcomes (for composite operations spanning several
   sub-operations, e.g. a SWMR write into every copy).  Keeps [a]'s value
   on ties of rank; failure reasons merge. *)
let worse a b =
  match (a, b) with
  | Ok _, Ok _ | (Degraded _ | Timed_out _), Ok _ -> a
  | Ok _, (Degraded _ | Timed_out _) -> b
  | Degraded ra, Degraded rb -> Degraded (merge_reason ra rb)
  | (Degraded ra | Timed_out ra), (Degraded rb | Timed_out rb) ->
    Timed_out (merge_reason ra rb)

let pp_reason ppf r =
  Format.fprintf ppf "{attempts=%d; acks=%d/%d%s}" r.attempts r.acks r.need
    (match r.suspects with
    | [] -> ""
    | l ->
      Printf.sprintf "; suspects=[%s]"
        (String.concat "," (List.map string_of_int l)))

let pp pp_v ppf = function
  | Ok v -> Format.fprintf ppf "Ok %a" pp_v v
  | Degraded r -> Format.fprintf ppf "Degraded %a" pp_reason r
  | Timed_out r -> Format.fprintf ppf "Timed_out %a" pp_reason r

let reason_to_json r =
  Obs.Json.Obj
    [
      ("attempts", Obs.Json.Int r.attempts);
      ("acks", Obs.Json.Int r.acks);
      ("need", Obs.Json.Int r.need);
      ("suspects", Obs.Json.List (List.map (fun s -> Obs.Json.Int s) r.suspects));
    ]

type tally = { ok : int; degraded : int; timed_out : int }

let zero_tally = { ok = 0; degraded = 0; timed_out = 0 }

let add_tally a b =
  {
    ok = a.ok + b.ok;
    degraded = a.degraded + b.degraded;
    timed_out = a.timed_out + b.timed_out;
  }

let bump t o ~count =
  match o with
  | Ok _ -> { t with ok = t.ok + count }
  | Degraded _ -> { t with degraded = t.degraded + count }
  | Timed_out _ -> { t with timed_out = t.timed_out + count }

let tally_codec () =
  Obs.Json.(
    record (fun ok degraded timed_out -> { ok; degraded; timed_out })
    |> field "ok" int (fun t -> t.ok)
    |> field "degraded" int (fun t -> t.degraded)
    |> field "timed_out" int (fun t -> t.timed_out)
    |> seal)

let pp_tally fmt t =
  Format.fprintf fmt "%d ok / %d degraded / %d timed out" t.ok t.degraded
    t.timed_out
