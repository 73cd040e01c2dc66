type violation = { read : History.op; expected : Registers.Value.t list }

type report = {
  reads_checked : int;
  reads_skipped : int;
  liveness_failures : int;
  violations : violation list;
}

(* The writes, indexed once per check: in history order (by invocation,
   ties in recording order), with their invocations and the running
   maximum of their responses as ints.  [max_resp] never decreases, so a
   binary search finds, for a read invoked at [i], the prefix of writes
   whose responses are all at most [i]: each completed before the read,
   and none is concurrent with it.  Every other write that completed
   before the read or is concurrent with it follows that prefix and was
   invoked before the read's response (at its invocation, for a read of
   no duration), as a write never responds before it is invoked. *)
type index = {
  ops : History.op array;
  inv : int array;
  max_resp : int array;
  writes : History.op list;
}

let index writes =
  let ops = Array.of_list writes in
  let latest = ref min_int in
  {
    ops;
    inv = Array.map (fun (w : History.op) -> Sim.Vtime.to_int w.inv) ops;
    max_resp =
      Array.map
        (fun (w : History.op) ->
          latest := Int.max !latest (Sim.Vtime.to_int w.resp);
          !latest)
        ops;
    writes;
  }

let writes ix = ix.writes

(* How many elements of the non-decreasing [a] are at most [x]. *)
let count_le (a : int array) (x : int) =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if a.(mid) <= x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Writes [i .. stop - 1] past the prefix: each completed before [read]
   or concurrent with it, or neither.  [last] is the last completed write
   so far, which only a strictly later response displaces. *)
let rec scan ix (read : History.op) stop i last concurrent =
  if i >= stop then (last, List.rev concurrent)
  else
    let w = ix.ops.(i) in
    if Sim.Vtime.( <= ) w.resp read.inv then
      match last with
      | Some (best : History.op) when Sim.Vtime.( <= ) w.resp best.resp ->
        scan ix read stop (i + 1) last concurrent
      | Some _ | None -> scan ix read stop (i + 1) (Some w) concurrent
    else if History.overlap w read then
      scan ix read stop (i + 1) last (w.value :: concurrent)
    else scan ix read stop (i + 1) last concurrent

(* The last write completed before [read] and the values of the writes
   concurrent with it, in history order.  The last completed write is
   the first, in history order, to have the latest response among those
   completed; [None] when no write completed before the read. *)
let admissible ix (read : History.op) =
  let r_inv = Sim.Vtime.to_int read.inv in
  let prefix = count_le ix.max_resp r_inv in
  let last =
    if prefix = 0 then None
    else Some ix.ops.(count_le ix.max_resp (ix.max_resp.(prefix - 1) - 1))
  in
  let stop = count_le ix.inv (Int.max r_inv (Sim.Vtime.to_int read.resp - 1)) in
  scan ix read stop prefix last []

let check_index ?cutoff ?(initial_ok = false) ix reads =
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
          let last, concurrent = admissible ix r in
          let expected =
            match last with
            | Some (w : History.op) -> w.value :: concurrent
            | None -> concurrent
          in
          if expected = [] && initial_ok then None
          else if
            (* A read overlapping only the register's first write(s) may
               still see the initial value — it can take effect before
               any of them. *)
            initial_ok && Option.is_none last
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

let check ?cutoff ?initial_ok h =
  let writes, reads = History.split h in
  check_index ?cutoff ?initial_ok (index writes) reads

let is_clean r = r.violations = [] && r.liveness_failures = 0

let pp ppf r =
  Format.fprintf ppf
    "regularity: %d checked, %d skipped, %d liveness failures, %d violations"
    r.reads_checked r.reads_skipped r.liveness_failures
    (List.length r.violations);
  List.iter
    (fun v ->
      Format.fprintf ppf "@.  VIOLATION %a returned %a, admissible: %s"
        History.pp_op v.read Registers.Value.pp v.read.History.value
        (String.concat ", "
           (List.map Registers.Value.to_string v.expected)))
    r.violations
