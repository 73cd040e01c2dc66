type config = {
  m : int;
  base_inst : int;
  modulus : int;
  seq_bound : int;
  tie : [ `Min_index | `Max_index ];
  view_budget : int;
}

let default_config ~m =
  {
    m;
    base_inst = 0;
    modulus = Seqnum.default_modulus;
    seq_bound = 1 lsl 61;
    tie = `Min_index;
    view_budget = 64;
  }

let epoch_k cfg = Int.max cfg.m 2

type state = {
  own : Swsr_atomic.wstate array;
  views : Swsr_atomic.rstate array;
  mutable last_ts : (Epoch.t * int) option;
  mutable epochs_opened : int;
  mutable restamps_rev : (Value.t * Epoch.t * int) list;
}

let fresh_state cfg =
  { own = Array.init cfg.m (fun _ -> Swsr_atomic.fresh_wstate ());
    views = Array.init cfg.m (fun _ -> Swsr_atomic.fresh_rstate ());
    last_ts = None; epochs_opened = 0; restamps_rev = [] }

let copy_state st =
  { st with own = Array.map Swsr_atomic.copy_wstate st.own;
            views = Array.map Swsr_atomic.copy_rstate st.views }

type layout = {
  id : int;
  cfg : config;
  params : Params.t;
  own : Swmr.layout;
  views : Swmr.layout array;
  wprobe : Instr.probe option;
  rprobe : Instr.probe option;
}

let layout ?engine ~params ~cfg ~id ~client_id () =
  if id < 0 || id >= cfg.m then invalid_arg "Mwmr.process: id out of range";
  Seqnum.validate_modulus cfg.modulus;
  { id; cfg; params;
    own =
      Swmr.layout ?engine ~params ~client_id `Write
        (Array.init cfg.m (fun j -> cfg.base_inst + (id * cfg.m) + j));
    views =
      Array.init cfg.m (fun j ->
          Swmr.layout ?engine ~params ~client_id `Read
            [| cfg.base_inst + (j * cfg.m) + id |]);
    wprobe = Collect.probe ?engine ~client:client_id ~reg:"mwmr" `Write;
    rprobe = Collect.probe ?engine ~client:client_id ~reg:"mwmr" `Read }

(* A value read back from an underlying SWMR register is expected to be a
   (data, epoch, seq) triple; anything else is debris from corruption or an
   unwritten register and is absorbed as a genesis-stamped triple. *)
let decode ~k v =
  match v with
  | Value.Stamped { data; epoch; seq } -> (data, epoch, seq)
  | Value.Bot | Value.Int _ | Value.Str _ -> (v, Epoch.genesis ~k, 0)

(* Lines 01 and 09: collect this process's view of REG[1..m].  A sub-read
   that exhausts the inquiry budget (possible only before the registers'
   writers have written post-fault) is absorbed as a genesis-stamped Bot
   triple; see the [view_budget] documentation.  Continues with the views
   plus the worst sub-read outcome, so a view assembled while servers were
   unreachable is reported as degraded rather than silently partial. *)
let read_views ?max_iterations l get k =
  let k_epoch = epoch_k l.cfg in
  let budget =
    match max_iterations with Some b -> b | None -> l.cfg.view_budget
  in
  let rec go j views worst =
    if j = Array.length l.views then k (Array.of_list (List.rev views), worst)
    else
      Swmr.read_op ~max_iterations:budget l.views.(j) ~modulus:l.cfg.modulus
        (fun c -> (get c : state).views.(j))
        (function
          | Outcome.Ok v -> go (j + 1) (decode ~k:k_epoch v :: views) worst
          | (Outcome.Degraded _ | Outcome.Timed_out _) as o ->
            go (j + 1)
              ((Value.bot, Epoch.genesis ~k:k_epoch, 0) :: views)
              (Outcome.worse worst (Outcome.map (fun _ -> ()) o)))
  in
  go 0 [] (Outcome.Ok ())

(* Degraded views only surface in the typed outcome when waits have a
   deadline: under the paper's unbounded wait, absorbing failed sub-reads
   as genesis triples is the algorithm's normal (and only) path, and the
   operation succeeds with the absorbed result. *)
let view_gate l o =
  match (Params.retry l.params).Params.deadline with
  | None -> Outcome.Ok ()
  | Some _ -> o

let view_epoch (_, e, _) = e

let view_epochs views = Array.fold_right (fun v es -> view_epoch v :: es) views []

(* The scans below walk the views in place, in view order, and are
   top-level functions so a scan allocates nothing. *)
let rec exhausted ~seq_bound views me j =
  j < Array.length views
  && ((let _, e, s = views.(j) in
       Epoch.equal e me && s >= seq_bound)
     || exhausted ~seq_bound views me (j + 1))

(* Lines 02 / 10: no greatest epoch, or its sequence space is exhausted. *)
let must_open_epoch l views =
  match Epoch.max_epoch_by view_epoch views with
  | None -> true
  | Some me -> exhausted ~seq_bound:l.cfg.seq_bound views me 0

let rec holders_seq_max views me j acc =
  if j >= Array.length views then acc
  else
    let _, e, s = views.(j) in
    holders_seq_max views me (j + 1)
      (if Epoch.equal e me then Int.max acc s else acc)

(* Lines 05-06 / 13-14: the greatest epoch and the maximal sequence number
   among the views holding it. *)
let frontier views =
  match Epoch.max_epoch_by view_epoch views with
  | None -> None
  | Some me -> Some (me, holders_seq_max views me 0 min_int)

let write_own l get v =
  Swmr.write_op l.own ~modulus:l.cfg.modulus (fun j c -> (get c : state).own.(j)) v

let write_op l get v =
  Collect.scoped l.wprobe (fun k ->
      read_views l get (fun (views, view_health) c ->
          let p : state = get c in
          if must_open_epoch l views then begin
            let ne = Epoch.next_epoch ~k:(epoch_k l.cfg) (view_epochs views) in
            p.epochs_opened <- p.epochs_opened + 1;
            views.(l.id) <- (v, ne, 0) (* line 03 *)
          end;
          match frontier views with
          | None -> assert false (* next_epoch dominates every view epoch *)
          | Some (me, seq_max) ->
            let ts_seq = seq_max + 1 in
            p.last_ts <- Some (me, ts_seq);
            (* line 07 *)
            write_own l get (Value.stamped ~data:v ~epoch:me ~seq:ts_seq)
              (fun wo -> k (Outcome.worse wo (view_gate l view_health))) c))

(* From view [j] on, by [step]: the first view holding the frontier
   timestamp. *)
let rec newest views ((me, seq_max) as fr) j ~step =
  if j < 0 || j >= Array.length views then (0, Value.bot)
    (* unreachable: some view holds the frontier *)
  else
    let v, e, s = views.(j) in
    if Epoch.equal e me && s = seq_max then (j, v)
    else newest views fr (j + step) ~step

(* Line 15: among the views holding the frontier timestamp, the minimal
   index (or the maximal one, as configured). *)
let pick_return l views fr =
  match l.cfg.tie with
  | `Min_index -> newest views fr 0 ~step:1
  | `Max_index -> newest views fr (Array.length views - 1) ~step:(-1)

let read_op ?max_iterations l get =
  Collect.scoped l.rprobe (fun k ->
      read_views ?max_iterations l get (fun (views, view_health) c ->
          let restamp =
            if not (must_open_epoch l views) then None
            else begin
              (* Line 11: restamp our own current value into a fresh epoch. *)
              let ne = Epoch.next_epoch ~k:(epoch_k l.cfg) (view_epochs views) in
              let own_v, _, _ = views.(l.id) in
              views.(l.id) <- (own_v, ne, 0);
              Some (own_v, ne)
            end
          in
          let gate = view_gate l view_health in
          let result =
            match frontier views with
            | None ->
              Outcome.Timed_out
                (Option.value ~default:Outcome.no_reason (Outcome.reason gate))
            | Some ((me, seq_max) as fr) ->
              let j, v = pick_return l views fr in
              Outcome.map (fun () -> (v, me, seq_max, j)) gate
          in
          match restamp with
          | None -> k result c
          | Some (own_v, ne) ->
            let p : state = get c in
            p.epochs_opened <- p.epochs_opened + 1;
            p.restamps_rev <- (own_v, ne, 0) :: p.restamps_rev;
            write_own l get (Value.stamped ~data:own_v ~epoch:ne ~seq:0) (fun _ -> k result) c))

type process = { net : Net.t; port : Net.client_port; layout : layout; st : state }

let process ~net ~cfg ~id ~client_id =
  let layout = layout ~engine:(Net.engine net) ~params:(Net.params net) ~cfg ~id ~client_id () in
  { net; port = Net.add_client net ~id:client_id; layout; st = fresh_state cfg }

let state (p : process) = p.st

let run p op = Collect.run ~net:p.net ~port:p.port p op

let write p v = run p (write_op p.layout state v)

let read_timestamped ?max_iterations p = run p (read_op ?max_iterations p.layout state)

let read ?max_iterations p =
  read_timestamped ?max_iterations p
  |> Outcome.map (fun (v, _, _, _) -> v)

let id p = p.layout.id

let last_write_timestamp p = p.st.last_ts

let epochs_opened p = p.st.epochs_opened

let take_restamps p =
  let log = List.rev p.st.restamps_rev in
  p.st.restamps_rev <- [];
  log
