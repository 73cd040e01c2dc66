(* The indexed oracles against the quadratic ones they replaced
   (Oracle_reference), on random histories of at most eight operations:
   overlapping writes, equal instants, reads of no duration, ⊥ reads and
   reads that ran out of budget.  Reports must be identical, down to the
   order of each violation's admissible values. *)

open Oracles
module Ref = Oracle_reference

type gen_op = { write : bool; inv : int; dur : int; v : int; ok : bool }

(* Written values are 1-6 (a repeat is possible, which the atomicity
   checker reports as malformed); a read returns ⊥ (0), a written value
   or one never written (7). *)
let gen_op =
  QCheck.Gen.(
    map
      (fun (write, inv, dur, v, ok) -> { write; inv; dur; v; ok })
      (tup5 bool (int_range 0 12) (int_range 0 6) (int_range 0 7)
         (frequency [ (4, return true); (1, return false) ])))

let value_of v = if v = 0 then Registers.Value.bot else Registers.Value.int v

let history ops =
  let h = History.create () in
  List.iter
    (fun o ->
      let inv = Sim.Vtime.of_int o.inv and resp = Sim.Vtime.of_int (o.inv + o.dur) in
      if o.write then
        History.record h ~proc:"writer" ~kind:History.Write ~inv ~resp
          (value_of (Int.max 1 (Int.min 6 o.v)))
      else
        History.record h ~proc:"reader" ~kind:History.Read ~inv ~resp ~ok:o.ok
          (value_of o.v))
    ops;
  h

let show_ops ops =
  History.ops (history ops)
  |> List.map (Format.asprintf "%a" History.pp_op)
  |> String.concat "; "

let arb_case extra show_extra =
  QCheck.make
    ~print:(fun (ops, x) -> Printf.sprintf "[%s] %s" (show_ops ops) (show_extra x))
    ~shrink:(QCheck.Shrink.pair QCheck.Shrink.list QCheck.Shrink.nil)
    QCheck.Gen.(pair (list_size (int_range 0 8) gen_op) extra)

let gen_cutoff = QCheck.Gen.(opt (int_range 0 15))

let show_cutoff = function
  | None -> "no cutoff"
  | Some c -> Printf.sprintf "cutoff %d" c

let regularity_report = Format.asprintf "%a" Regularity.pp

let prop_regularity =
  QCheck.Test.make ~count:3000
    ~name:"indexed regularity matches the quadratic check"
    (arb_case
       QCheck.Gen.(pair gen_cutoff bool)
       (fun (c, initial_ok) ->
         Printf.sprintf "%s, initial_ok %b" (show_cutoff c) initial_ok))
    (fun (ops, (cutoff, initial_ok)) ->
      let h = history ops in
      let cutoff = Option.map Sim.Vtime.of_int cutoff in
      let got = Regularity.check ?cutoff ~initial_ok h in
      let want = Ref.Regularity.check ?cutoff ~initial_ok h in
      got = want
      || QCheck.Test.fail_reportf "indexed:@.%s@.quadratic:@.%s"
           (regularity_report got) (regularity_report want))

let prop_sw_atomicity =
  QCheck.Test.make ~count:2000
    ~name:"indexed single-writer atomicity matches the quadratic check"
    (arb_case gen_cutoff show_cutoff)
    (fun (ops, cutoff) ->
      let h = history ops in
      let cutoff = Option.map Sim.Vtime.of_int cutoff in
      let got = Atomicity.Sw.check ?cutoff h in
      let want = Ref.Sw.check ?cutoff h in
      got = want
      || QCheck.Test.fail_reportf "indexed:@.%s@.quadratic:@.%s"
           (Format.asprintf "%a" Atomicity.Sw.pp got)
           (Format.asprintf "%a" Atomicity.Sw.pp want))

(* Up to three distinct disturbance points, ascending. *)
let gen_points =
  QCheck.Gen.(
    map
      (fun ps -> List.sort_uniq Int.compare ps)
      (list_size (int_range 0 3) (int_range 1 18)))

let show_points ps = "points " ^ String.concat "," (List.map string_of_int ps)

let prop_stabilization =
  QCheck.Test.make ~count:3000
    ~name:"one-sort stabilization matches the sub-history path"
    (arb_case gen_points show_points)
    (fun (ops, points) ->
      let h = history ops in
      let verdicts check =
        List.map
          (fun cond -> check cond ~points h)
          [ Stabilization.Regular_cond; Stabilization.Sw_atomic ]
      in
      let got = verdicts (Stabilization.check ?stuck:None ?grace:None)
      and want = verdicts (Ref.Stabilization.check ?stuck:None) in
      let bounds = List.combine (0 :: points) (points @ [ max_int ]) in
      let times time = List.map (fun (lo, hi) -> time h ~lo ~hi) bounds in
      let show vs =
        String.concat " / " (List.map (Format.asprintf "%a" Stabilization.pp_verdict) vs)
      in
      (List.for_all2 Stabilization.verdict_equal got want
       || QCheck.Test.fail_reportf "one sort: %s@.sub-history: %s" (show got)
            (show want))
      && (times Stabilization.time = times Ref.Stabilization.time
         || QCheck.Test.fail_report "segment stabilization times differ"))

let tests =
  List.map Util.qcheck [ prop_regularity; prop_sw_atomicity; prop_stabilization ]
