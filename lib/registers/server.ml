type instance = { mutable last_val : Messages.cell; mutable helping : Messages.help }

(* Instance numbers are small consecutive ints from 0, so the table is
   dense: indexed by instance, [absent] in the slots not created yet, and
   grown by doubling past the largest instance touched.  [absent] is never
   handed out, so it is never written. *)
let absent = { last_val = Messages.bot_cell; helping = None }

type t = { id : int; mutable insts : instance array }

let create ~id = { id; insts = Array.make 4 absent }

let id t = t.id

let grow t inst =
  let len = ref (Array.length t.insts) in
  while !len <= inst do
    len := 2 * !len
  done;
  let insts = Array.make !len absent in
  Array.blit t.insts 0 insts 0 (Array.length t.insts);
  t.insts <- insts

let instance t inst =
  if inst < 0 then invalid_arg "Server.instance: negative instance";
  if inst >= Array.length t.insts then grow t inst;
  let i = t.insts.(inst) in
  if i != absent then i
  else begin
    let i = { last_val = Messages.bot_cell; helping = None } in
    t.insts.(inst) <- i;
    i
  end

let copy t =
  { t with insts = Array.map (fun i -> if i == absent then i else { i with helping = i.helping }) t.insts }

let instances t =
  let acc = ref [] in
  for k = Array.length t.insts - 1 downto 0 do
    let i = t.insts.(k) in
    if i != absent then acc := (k, i) :: !acc
  done;
  !acc

let handle t (env : Messages.server_envelope) ~ack =
  let i = instance t env.inst in
  match env.body with
  | Messages.Write c ->
    i.last_val <- c;
    ack env (Messages.Ack_write i.helping)
  | Messages.New_help c -> i.helping <- Some c
  | Messages.Read new_read ->
    if new_read then i.helping <- None;
    ack env (Messages.Ack_read (i.last_val, i.helping))

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

(* Corrupt instances in ascending order: the rng draws then depend only
   on which instances exist, not on the order they were created in. *)
let corrupt t rng =
  List.iter
    (fun (_, i) ->
      i.last_val <- Messages.arbitrary_cell rng;
      i.helping <-
        (if Sim.Rng.bool rng then None else Some (Messages.arbitrary_cell rng)))
    (instances t)
