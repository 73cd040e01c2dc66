type inversion = { earlier_read : History.op; later_read : History.op }

module Sw = struct
  type report = {
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

  let check_index ?cutoff ix reads =
    let regularity = Regularity.check_index ?cutoff ix reads in
    let writes = Regularity.writes ix in
    let malformed = find_malformed writes in
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    let reads =
      reads
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

  let check ?cutoff h =
    let writes, reads = History.split h in
    check_index ?cutoff (Regularity.index writes) reads

  let is_clean r =
    Regularity.is_clean r.regularity && r.inversions = [] && r.malformed = []

  let pp ppf r =
    Format.fprintf ppf "%a@.atomicity: %d inversions, %d malformed"
      Regularity.pp r.regularity
      (List.length r.inversions)
      (List.length r.malformed);
    List.iter
      (fun inv ->
        Format.fprintf ppf "@.  INVERSION %a then %a" History.pp_op
          inv.earlier_read History.pp_op inv.later_read)
      r.inversions;
    List.iter (fun m -> Format.fprintf ppf "@.  MALFORMED %s" m) r.malformed
end

module Mw = struct
  type violation = { kind : string; detail : string }

  type report = {
    writes_checked : int;
    reads_checked : int;
    violations : violation list;
  }

  exception Incomparable of Registers.Epoch.t * Registers.Epoch.t

  (* Total order on timestamps, raising on epoch incomparability (only
     pre-stabilization debris is incomparable). *)
  let compare_ts ~tie (e1, s1, p1) (e2, s2, p2) =
    let pid_cmp =
      match tie with
      | `Max_index -> Int.compare p1 p2 (* Definition 1: larger id later *)
      | `Min_index -> Int.compare p2 p1 (* line 15 literal: smaller id wins *)
    in
    if Registers.Epoch.equal e1 e2 then
      let c = Int.compare s1 s2 in
      if c <> 0 then c else pid_cmp
    else if Registers.Epoch.gt e1 e2 then 1
    else if Registers.Epoch.gt e2 e1 then -1
    else raise (Incomparable (e1, e2))

  let check ?cutoff ~tie h =
    let after_cutoff (o : History.op) =
      match cutoff with None -> true | Some c -> Sim.Vtime.( <= ) c o.inv
    in
    let violations = ref [] in
    let bad kind detail = violations := { kind; detail } :: !violations in
    let with_ts ops =
      List.filter_map
        (fun (o : History.op) ->
          match o.ts with
          | Some ts when o.ok && after_cutoff o -> Some (o, ts)
          | Some _ | None -> None)
        ops
    in
    let writes = with_ts (History.writes h) in
    let reads = with_ts (History.reads h) in
    let cmp a b =
      try Some (compare_ts ~tie a b)
      with Incomparable (e1, e2) ->
        bad "incomparable-epochs"
          (Format.asprintf "%a vs %a" Registers.Epoch.pp e1
             Registers.Epoch.pp e2);
        None
    in
    (* 1. Timestamps respect the real-time order of writes (Lemma 16). *)
    let rec write_pairs = function
      | [] -> []
      | w :: rest -> List.map (fun w' -> (w, w')) rest @ write_pairs rest
    in
    List.iter
      (fun (((w1 : History.op), ts1), ((w2 : History.op), ts2)) ->
        if Sim.Vtime.( <= ) w1.resp w2.inv then
          match cmp ts1 ts2 with
          | Some c when c >= 0 ->
            bad "write-order"
              (Format.asprintf "%a not before %a" History.pp_op w1
                 History.pp_op w2)
          | Some _ | None -> ())
      (write_pairs writes);
    (* 2. Each read is at least as new as every write completed before it,
       and not newer than every write invoked before it responded. *)
    List.iter
      (fun (((r : History.op), tsr) : History.op * _) ->
        List.iter
          (fun (((w : History.op), tsw) : History.op * _) ->
            if Sim.Vtime.( <= ) w.resp r.inv then
              match cmp tsr tsw with
              | Some c when c < 0 ->
                bad "stale-read"
                  (Format.asprintf "%a older than completed %a" History.pp_op
                     r History.pp_op w)
              | Some _ | None -> ())
          writes;
        (* The read's timestamp must belong to some write that had started
           (or be older than all of them: the initial value). *)
        let plausible =
          writes = []
          || List.exists
               (fun ((w : History.op), tsw) ->
                 Sim.Vtime.( < ) w.inv r.resp
                 && match cmp tsr tsw with Some 0 -> true | _ -> false)
               writes
          || List.for_all
               (fun ((w : History.op), tsw) ->
                 (not (Sim.Vtime.( <= ) w.resp r.inv))
                 && match cmp tsr tsw with Some c -> c < 0 | None -> true)
               writes
        in
        if not plausible then
          bad "future-or-phantom-read"
            (Format.asprintf "%a matches no plausible write" History.pp_op r))
      reads;
    (* 3. Reads are monotone along real time. *)
    let rec read_pairs = function
      | [] -> []
      | r :: rest -> List.map (fun r' -> (r, r')) rest @ read_pairs rest
    in
    List.iter
      (fun (((r1 : History.op), ts1), ((r2 : History.op), ts2)) ->
        if Sim.Vtime.( <= ) r1.resp r2.inv then
          match cmp ts1 ts2 with
          | Some c when c > 0 ->
            bad "read-inversion"
              (Format.asprintf "%a then %a" History.pp_op r1 History.pp_op r2)
          | Some _ | None -> ())
      (read_pairs reads);
    {
      writes_checked = List.length writes;
      reads_checked = List.length reads;
      violations = List.rev !violations;
    }

  let is_clean r = r.violations = []

  let pp ppf r =
    Format.fprintf ppf "mw-atomicity: %d writes, %d reads, %d violations"
      r.writes_checked r.reads_checked
      (List.length r.violations);
    List.iter
      (fun v -> Format.fprintf ppf "@.  %s: %s" v.kind v.detail)
      r.violations
end
