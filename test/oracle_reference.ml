(* The oracles as they were before the writes of a history were indexed:
   the quadratic regularity check, the single-writer atomicity check on
   top of it, and the per-segment sub-history path of the stabilization
   verdict, copied unchanged.  The indexed oracles are tested against
   them (test_oracle_index.ml). *)

open Oracles

module Regularity = struct
  type violation = Regularity.violation = {
    read : History.op;
    expected : Registers.Value.t list;
  }

  type report = Regularity.report = {
    reads_checked : int;
    reads_skipped : int;
    liveness_failures : int;
    violations : violation list;
  }

  (* Admissible values for a read: value of the last write completed before
     the read's invocation, plus values of all writes concurrent with it. *)
  let admissible writes (read : History.op) =
    let completed_before =
      List.filter (fun (w : History.op) -> Sim.Vtime.( <= ) w.resp read.inv) writes
    in
    let last_completed =
      List.fold_left
        (fun acc (w : History.op) ->
          match acc with
          | Some (best : History.op) when Sim.Vtime.( <= ) w.resp best.resp ->
            acc
          | Some _ | None -> Some w)
        None completed_before
    in
    let concurrent = List.filter (fun w -> History.overlap w read) writes in
    let vs =
      (match last_completed with Some w -> [ w.value ] | None -> [])
      @ List.map (fun (w : History.op) -> w.value) concurrent
    in
    vs

  let check ?cutoff ?(initial_ok = false) h =
    let writes = History.writes h in
    let reads = History.reads h in
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    let checked, skipped = List.partition after_cutoff reads in
    let liveness = List.filter (fun (r : History.op) -> not r.ok) checked in
    let violations =
      List.filter_map
        (fun (r : History.op) ->
          if not r.ok then None
          else
            let expected = admissible writes r in
            let no_completed_prior =
              not
                (List.exists
                   (fun (w : History.op) -> Sim.Vtime.( <= ) w.resp r.inv)
                   writes)
            in
            if expected = [] && initial_ok then None
            else if
              (* A read overlapping only the register's first write(s) may
                 still see the initial value — it can take effect before
                 any of them. *)
              initial_ok && no_completed_prior
              && Registers.Value.equal r.value Registers.Value.bot
            then None
            else if
              List.exists (fun v -> Registers.Value.equal v r.value) expected
            then None
            else Some { read = r; expected })
        checked
    in
    {
      reads_checked = List.length checked;
      reads_skipped = List.length skipped;
      liveness_failures = List.length liveness;
      violations;
    }
end

module Sw = struct
  type inversion = Atomicity.inversion = {
    earlier_read : History.op;
    later_read : History.op;
  }

  type report = Atomicity.Sw.report = {
    regularity : Regularity.report;
    inversions : inversion list;
    malformed : string list;
  }

  let find_malformed writes =
    let rec overlapping = function
      | (w1 : History.op) :: ((w2 : History.op) :: _ as rest) ->
        (if History.overlap w1 w2 then
           [ Format.asprintf "overlapping writes: %a / %a" History.pp_op w1
               History.pp_op w2 ]
         else [])
        @ overlapping rest
      | [ _ ] | [] -> []
    in
    let dup_values =
      let seen = Hashtbl.create 16 in
      List.filter_map
        (fun (w : History.op) ->
          let key = Registers.Value.to_string w.value in
          if Hashtbl.mem seen key then
            Some (Printf.sprintf "duplicate written value %s" key)
          else begin
            Hashtbl.add seen key ();
            None
          end)
        writes
    in
    overlapping writes @ dup_values

  (* Index of the write whose value the read returned; None if the value
     was never written (a regularity violation, reported there). *)
  let write_index writes (r : History.op) =
    let rec scan i = function
      | [] -> None
      | (w : History.op) :: rest ->
        if Registers.Value.equal w.value r.value then Some i
        else scan (i + 1) rest
    in
    scan 0 writes

  let check ?cutoff h =
    let regularity = Regularity.check ?cutoff h in
    let writes = History.writes h in
    let malformed = find_malformed writes in
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    let reads =
      History.reads h
      |> List.filter (fun (r : History.op) -> r.ok && after_cutoff r)
      |> List.filter_map (fun r ->
             match write_index writes r with
             | Some i -> Some (r, i)
             | None -> None)
    in
    (* New/old inversion: a read that precedes another read in real time
       must not return a strictly newer write. *)
    let rec pairs = function
      | [] -> []
      | (r1, i1) :: rest ->
        List.filter_map
          (fun ((r2 : History.op), i2) ->
            if Sim.Vtime.( <= ) (r1 : History.op).resp r2.inv && i1 > i2 then
              Some { earlier_read = r1; later_read = r2 }
            else None)
          rest
        @ pairs rest
    in
    { regularity; inversions = pairs reads; malformed }
end

module Stabilization = struct
  open Stabilization

  module Atomicity = struct
    type inversion = Sw.inversion

    module Sw = Sw
    module Mw = Atomicity.Mw
  end

  let sub_history h ~lo ~hi =
    let sub = History.create () in
    List.iter
      (fun (o : History.op) ->
        let keep =
          match o.kind with
          | History.Write -> true
          | History.Read ->
            Sim.Vtime.to_int o.inv >= lo && Sim.Vtime.to_int o.resp < hi
        in
        if keep then
          History.record sub ~proc:o.proc ~kind:o.kind ~inv:o.inv ~resp:o.resp
            ?ts:o.ts ~ok:o.ok o.value)
      (History.ops h);
    sub

  let cutoff_from h ~lo =
    History.writes h
    |> List.find_opt (fun (o : History.op) -> Sim.Vtime.to_int o.inv >= lo)
    |> Option.map (fun (o : History.op) -> o.resp)

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

  let segments points =
    let rec go = function
      | [] -> []
      | [ lo ] -> [ (lo, max_int) ]
      | lo :: (hi :: _ as rest) -> (lo, hi) :: go rest
    in
    go (0 :: points)

  let segment_issues ~atomic h points =
    segments points
    |> List.concat_map (fun (lo, hi) ->
           let sub = sub_history h ~lo ~hi in
           match cutoff_from sub ~lo with
           | None -> []
           | Some cutoff ->
             if atomic then sw_issues (Atomicity.Sw.check ~cutoff sub)
             else regularity_issues (Regularity.check ~cutoff sub))

  let suffix_issues h points =
    let lo = match List.rev points with [] -> 0 | p :: _ -> p in
    match cutoff_from h ~lo with
    | None -> []
    | Some cutoff ->
      let r = Atomicity.Mw.check ~cutoff ~tie:`Min_index h in
      List.map
        (fun (v : Atomicity.Mw.violation) -> ("mw", v.kind ^ ": " ^ v.detail))
        r.violations

  let check ?(stuck = []) condition ~points h =
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
        | Regular_cond -> segment_issues ~atomic:false h points
        | Sw_atomic -> segment_issues ~atomic:true h points
        | Mw_atomic -> suffix_issues h points)

  let time h ~lo ~hi =
    let sub = sub_history h ~lo ~hi in
    match cutoff_from sub ~lo with
    | None -> None
    | Some cutoff ->
      let rep = Regularity.check ~cutoff sub in
      let bad =
        List.map (fun (v : Regularity.violation) -> v.read) rep.violations
      in
      History.reads sub
      |> List.find_opt (fun (o : History.op) ->
             o.ok
             && Sim.Vtime.to_int o.inv >= Sim.Vtime.to_int cutoff
             && not (List.mem o bad))
      |> Option.map (fun (o : History.op) -> Sim.Vtime.to_int o.resp - lo)
end
