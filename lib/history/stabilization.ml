type family = Regular | Atomic | Mwmr

let family_to_string = function
  | Regular -> "regular"
  | Atomic -> "atomic"
  | Mwmr -> "mwmr"

let family_of_string = function
  | "regular" -> Ok Regular
  | "atomic" -> Ok Atomic
  | "mwmr" -> Ok Mwmr
  | s -> Error (Printf.sprintf "unknown register family %S" s)

type verdict =
  | Clean
  | Violation of { kind : string; count : int; detail : string }

let verdict_kind = function
  | Clean -> "clean"
  | Violation { kind; _ } -> kind

let same_kind a b = String.equal (verdict_kind a) (verdict_kind b)

let verdict_equal a b =
  match (a, b) with
  | Clean, Clean -> true
  | Violation a, Violation b ->
    String.equal a.kind b.kind && Int.equal a.count b.count
    && String.equal a.detail b.detail
  | Clean, Violation _ | Violation _, Clean -> false

let pp_verdict fmt = function
  | Clean -> Format.pp_print_string fmt "clean"
  | Violation { kind; count; detail } ->
    Format.fprintf fmt "%s x%d (%s)" kind count detail

let verdict_to_json v =
  let open Obs.Json in
  match v with
  | Clean -> Obj [ ("kind", Str "clean") ]
  | Violation { kind; count; detail } ->
    Obj [ ("kind", Str kind); ("count", Int count); ("detail", Str detail) ]

let violation_kinds = [ "regularity"; "inversion"; "mw"; "liveness"; "stuck" ]

let decode_verdict ctx j =
  let open Obs.Json in
  let* kind = str_field ctx "kind" j in
  if String.equal kind "clean" then Ok Clean
  else if not (List.mem kind violation_kinds) then
    Error (Printf.sprintf "%s: unknown kind %S" ctx kind)
  else
    let* count = int_field ctx "count" j in
    let* detail = str_field ctx "detail" j in
    if count < 1 then
      Error (Printf.sprintf "%s: count %d must be positive" ctx count)
    else Ok (Violation { kind; count; detail })

let verdict_codec = Obs.Json.codec verdict_to_json decode_verdict

let verdict_of_json = Obs.Json.decode verdict_codec "verdict"

type condition = Regular_cond | Sw_atomic | Mw_atomic

let condition_of_family = function
  | Regular -> Regular_cond
  | Atomic -> Sw_atomic
  | Mwmr -> Mw_atomic

let describe_read (o : History.op) = Format.asprintf "%a" History.pp_op o

let regularity_issues (r : Regularity.report) =
  List.map
    (fun (v : Regularity.violation) -> ("regularity", describe_read v.read))
    r.violations
  @
  if r.liveness_failures > 0 then
    [
      ( "liveness",
        Printf.sprintf "%d reads exhausted their budget" r.liveness_failures
      );
    ]
  else []

let sw_issues (r : Atomicity.Sw.report) =
  regularity_issues r.regularity
  @ List.map
      (fun (i : Atomicity.inversion) ->
        ("inversion", describe_read i.later_read))
      r.inversions
  @ List.map (fun m -> ("regularity", m)) r.malformed

(* [\[0, p1)], then [\[p_i + grace, p_(i+1))] for each point, the last
   one open-ended. *)
let segments ~grace points =
  let rec go lo = function
    | [] -> [ (lo, max_int) ]
    | p :: rest -> (lo, p) :: go (p + grace) rest
  in
  go 0 points

(* The reads of the segment [\[lo, hi)]: invoked at or after [lo],
   responded before [hi]. *)
let segment_reads reads ~lo ~hi =
  List.filter
    (fun (o : History.op) ->
      Sim.Vtime.to_int o.inv >= lo && Sim.Vtime.to_int o.resp < hi)
    reads

(* Response instant of the first of [writes] invoked at or after [lo]. *)
let first_response writes ~lo =
  List.find_opt (fun (o : History.op) -> Sim.Vtime.to_int o.inv >= lo) writes
  |> Option.map (fun (o : History.op) -> o.resp)

let cutoff_from h ~lo = first_response (History.writes h) ~lo

(* Each segment is checked against every write (a write before the
   segment still determines what reads inside it may return) and its own
   reads, from one sort of the history and one index of its writes. *)
let segment_issues ~atomic ~grace h points =
  let writes, reads = History.split h in
  let ix = Regularity.index writes in
  segments ~grace points
  |> List.concat_map (fun (lo, hi) ->
         match first_response writes ~lo with
         | None -> []
         | Some cutoff ->
           let reads = segment_reads reads ~lo ~hi in
           if atomic then sw_issues (Atomicity.Sw.check_index ~cutoff ix reads)
           else regularity_issues (Regularity.check_index ~cutoff ix reads))

let suffix_issues ~grace h points =
  let lo = match List.rev points with [] -> 0 | p :: _ -> p + grace in
  match cutoff_from h ~lo with
  | None -> []
  | Some cutoff ->
    let r = Atomicity.Mw.check ~cutoff ~tie:`Min_index h in
    List.map
      (fun (v : Atomicity.Mw.violation) -> ("mw", v.kind ^ ": " ^ v.detail))
      r.violations

let verdict_of_issues issues =
  match issues with
  | [] -> Clean
  | _ ->
    let severity = function "liveness" -> 1 | _ -> 0 in
    let kind, detail =
      List.stable_sort
        (fun (a, _) (b, _) -> Int.compare (severity a) (severity b))
        issues
      |> List.hd (* lint: allow R4 -- issues is non-empty in this branch *)
    in
    let count =
      List.length (List.filter (fun (k, _) -> String.equal k kind) issues)
    in
    Violation { kind; count; detail }

let check ?(stuck = []) ?(grace = 0) condition ~points h =
  match stuck with
  | _ :: _ ->
    Violation
      {
        kind = "stuck";
        count = List.length stuck;
        detail = "fibers never finished: " ^ String.concat ", " stuck;
      }
  | [] ->
    verdict_of_issues
      (match condition with
      | Regular_cond -> segment_issues ~atomic:false ~grace h points
      | Sw_atomic -> segment_issues ~atomic:true ~grace h points
      | Mw_atomic -> suffix_issues ~grace h points)

let time h ~lo ~hi =
  let writes, reads = History.split h in
  match first_response writes ~lo with
  | None -> None
  | Some cutoff ->
    let reads = segment_reads reads ~lo ~hi in
    let rep = Regularity.check_index ~cutoff (Regularity.index writes) reads in
    let bad =
      List.map (fun (v : Regularity.violation) -> v.read) rep.violations
    in
    reads
    |> List.find_opt (fun (o : History.op) ->
           o.ok
           && Sim.Vtime.to_int o.inv >= Sim.Vtime.to_int cutoff
           && not (List.mem o bad))
    |> Option.map (fun (o : History.op) -> Sim.Vtime.to_int o.resp - lo)
