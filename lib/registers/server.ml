type instance = { mutable last_val : Messages.cell; mutable helping : Messages.help }

(* Instance numbers are small consecutive ints, so they hash to
   themselves: no generic hashing on every delivery. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash i = i land max_int
end)

type t = { id : int; insts : instance Itbl.t }

let create ~id = { id; insts = Itbl.create 4 }

let id t = t.id

let instance t inst =
  match Itbl.find t.insts inst with
  | i -> i
  | exception Not_found ->
    let i = { last_val = Messages.bot_cell; helping = None } in
    Itbl.add t.insts inst i;
    i

let instances t =
  Itbl.fold (fun k v acc -> (k, v) :: acc) t.insts []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let handle t (env : Messages.server_envelope) =
  let i = instance t env.inst in
  match env.body with
  | Messages.Write c ->
    i.last_val <- c;
    Some (Messages.Ack_write i.helping)
  | Messages.New_help c ->
    i.helping <- Some c;
    None
  | Messages.Read new_read ->
    if new_read then i.helping <- None;
    Some (Messages.Ack_read (i.last_val, i.helping))

(* A crash-recovery wipe loses the volatile state entirely: every known
   instance goes back to the pristine bot content a fresh automaton would
   lazily create.  (Keeping the instance table itself is immaterial — an
   absent instance is recreated with exactly this content.) *)
let reset t =
  List.iter
    (fun (_, i) ->
      i.last_val <- Messages.bot_cell;
      i.helping <- None)
    (instances t)

(* Corrupt instances in sorted-key order: the rng draws then depend only
   on which instances exist, not on hash-table layout, so a corruption at
   a given seed is reproducible across insertion orders and OCaml
   versions. *)
let corrupt t rng =
  List.iter
    (fun (_, i) ->
      i.last_val <- Messages.arbitrary_cell rng;
      i.helping <-
        (if Sim.Rng.bool rng then None else Some (Messages.arbitrary_cell rng)))
    (instances t)
