type t =
  | Silent
  | Garbage
  | Equivocate
  | Frozen
  | Collude
  | Flaky of float
  | Delayed of int
  | Crash of int

(* The sequence number sits far outside anything the workloads write, so
   the forged cell can never alias an honest one.  Note that reaching the
   reader is about slot position, not the sequence number: the quorum scan
   walks acknowledgments in slot order, so colluders forge reads only from
   the lowest-numbered slots (scanned before the honest majority). *)
let forged_cell =
  { Registers.Messages.sn = 999_983; v = Registers.Value.str "chaos-forged" }

let default_pool =
  [| Silent; Garbage; Equivocate; Frozen; Flaky 0.5; Delayed 40; Crash 5 |]

let to_behavior adv ~slot = function
  | Silent -> Byzantine.Behavior.silent
  | Garbage -> Byzantine.Behavior.garbage
  | Equivocate -> Byzantine.Behavior.equivocate
  | Collude -> Byzantine.Behavior.collude ~cell:forged_cell
  | Frozen -> Byzantine.Behavior.frozen (Byzantine.Adversary.server adv slot)
  | Flaky p ->
    Byzantine.Behavior.flaky ~drop_probability:p
      (Byzantine.Adversary.server adv slot)
  | Delayed by ->
    Byzantine.Behavior.delayed ~by (Byzantine.Adversary.server adv slot)
  | Crash k ->
    Byzantine.Behavior.crash_after k (Byzantine.Adversary.server adv slot)

let to_string = function
  | Silent -> "silent"
  | Garbage -> "garbage"
  | Equivocate -> "equivocate"
  | Frozen -> "frozen"
  | Collude -> "collude"
  | Flaky p -> Printf.sprintf "flaky:%.17g" p
  | Delayed by -> Printf.sprintf "delayed:%d" by
  | Crash k -> Printf.sprintf "crash:%d" k

let of_string s =
  let arg prefix =
    let pl = String.length prefix in
    if String.length s > pl && String.equal (String.sub s 0 pl) prefix then
      Some (String.sub s pl (String.length s - pl))
    else None
  in
  match s with
  | "silent" -> Ok Silent
  | "garbage" -> Ok Garbage
  | "equivocate" -> Ok Equivocate
  | "frozen" -> Ok Frozen
  | "collude" -> Ok Collude
  | _ -> (
    match arg "flaky:" with
    | Some p -> (
      match float_of_string_opt p with
      | Some p when p >= 0.0 && p <= 1.0 -> Ok (Flaky p)
      | Some _ | None -> Error (Printf.sprintf "bad flaky probability %S" p))
    | None -> (
      match arg "delayed:" with
      | Some d -> (
        match int_of_string_opt d with
        | Some d when d >= 0 -> Ok (Delayed d)
        | Some _ | None -> Error (Printf.sprintf "bad delay %S" d))
      | None -> (
        match arg "crash:" with
        | Some k -> (
          match int_of_string_opt k with
          | Some k when k >= 0 -> Ok (Crash k)
          | Some _ | None -> Error (Printf.sprintf "bad crash count %S" k))
        | None -> Error (Printf.sprintf "unknown strategy %S" s))))

let equal a b =
  match (a, b) with
  | Flaky x, Flaky y -> Float.equal x y
  | a, b -> a = b

let pp fmt t = Format.pp_print_string fmt (to_string t)
