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

let epoch_k cfg = max cfg.m 2

type process = {
  id : int;
  net : Net.t;
  cfg : config;
  own : Swmr.writer;
  views : Swmr.reader array;
  wprobe : Instr.probe;
  rprobe : Instr.probe;
  mutable last_ts : (Epoch.t * int) option;
  mutable epochs_opened : int;
  mutable restamps_rev : (Value.t * Epoch.t * int) list;
}

let process ~net ~cfg ~id ~client_id =
  if id < 0 || id >= cfg.m then invalid_arg "Mwmr.process: id out of range";
  let engine = Net.engine net in
  let own =
    Swmr.writer ~net ~client_id
      ~base_inst:(cfg.base_inst + (id * cfg.m))
      ~readers:cfg.m ~modulus:cfg.modulus ()
  in
  let views =
    Array.init cfg.m (fun j ->
        Swmr.reader ~net ~client_id
          ~base_inst:(cfg.base_inst + (j * cfg.m))
          ~reader_index:id ~modulus:cfg.modulus ())
  in
  {
    id;
    net;
    cfg;
    own;
    views;
    wprobe = Instr.probe ~engine ~client:client_id ~reg:"mwmr" `Write;
    rprobe = Instr.probe ~engine ~client:client_id ~reg:"mwmr" `Read;
    last_ts = None;
    epochs_opened = 0;
    restamps_rev = [];
  }

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
   triple; see the [view_budget] documentation.  Returns the views plus
   the worst sub-read outcome, so a view assembled while servers were
   unreachable is reported as degraded rather than silently partial. *)
let read_views ?parent ?max_iterations p =
  let k = epoch_k p.cfg in
  let budget =
    match max_iterations with Some b -> b | None -> p.cfg.view_budget
  in
  let worst = ref (Outcome.Ok ()) in
  let views =
    Array.map
      (fun r ->
        match Swmr.read ?parent ~max_iterations:budget r with
        | Outcome.Ok v -> decode ~k v
        | (Outcome.Degraded _ | Outcome.Timed_out _) as o ->
          worst := Outcome.worse !worst (Outcome.map (fun _ -> ()) o);
          (Value.bot, Epoch.genesis ~k, 0))
      p.views
  in
  (views, !worst)

(* Degraded views only surface in the typed outcome when waits have a
   deadline: under the paper's unbounded wait, absorbing failed sub-reads
   as genesis triples is the algorithm's normal (and only) path, and the
   operation succeeds with the absorbed result. *)
let view_gate p o =
  match (Params.retry (Net.params p.net)).Params.deadline with
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
let must_open_epoch p views =
  match Epoch.max_epoch_by view_epoch views with
  | None -> true
  | Some me -> exhausted ~seq_bound:p.cfg.seq_bound views me 0

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

let write ?parent p v =
  Instr.run ?parent p.wprobe (fun ctx ->
      let views, view_health = read_views ~parent:ctx p in
      if must_open_epoch p views then begin
        let ne = Epoch.next_epoch ~k:(epoch_k p.cfg) (view_epochs views) in
        p.epochs_opened <- p.epochs_opened + 1;
        views.(p.id) <- (v, ne, 0) (* line 03 *)
      end;
      match frontier views with
      | None -> assert false (* next_epoch dominates every view epoch *)
      | Some (me, seq_max) ->
        let ts_seq = seq_max + 1 in
        p.last_ts <- Some (me, ts_seq);
        (* line 07 *)
        let wo =
          Swmr.write ~parent:ctx p.own
            (Value.stamped ~data:v ~epoch:me ~seq:ts_seq)
        in
        Outcome.worse wo (view_gate p view_health))

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
let pick_return p views fr =
  match p.cfg.tie with
  | `Min_index -> newest views fr 0 ~step:1
  | `Max_index -> newest views fr (Array.length views - 1) ~step:(-1)

let read_timestamped ?parent ?max_iterations p =
  Instr.run ?parent p.rprobe (fun ctx ->
      let views, view_health = read_views ~parent:ctx ?max_iterations p in
      if must_open_epoch p views then begin
        (* Line 11: restamp our own current value into a fresh epoch. *)
        let ne = Epoch.next_epoch ~k:(epoch_k p.cfg) (view_epochs views) in
        p.epochs_opened <- p.epochs_opened + 1;
        let own_v, _, _ = views.(p.id) in
        views.(p.id) <- (own_v, ne, 0);
        p.restamps_rev <- (own_v, ne, 0) :: p.restamps_rev;
        ignore
          (Swmr.write ~parent:ctx p.own
             (Value.stamped ~data:own_v ~epoch:ne ~seq:0))
      end;
      let gate = view_gate p view_health in
      match frontier views with
      | None ->
        Outcome.Timed_out
          (Option.value ~default:Outcome.no_reason (Outcome.reason gate))
      | Some ((me, seq_max) as fr) ->
        let j, v = pick_return p views fr in
        Outcome.map (fun () -> (v, me, seq_max, j)) gate)

let read ?parent ?max_iterations p =
  read_timestamped ?parent ?max_iterations p
  |> Outcome.map (fun (v, _, _, _) -> v)

let id p = p.id

let last_write_timestamp p = p.last_ts

let epochs_opened p = p.epochs_opened

let restamps p = List.rev p.restamps_rev

let own p = p.own

let views p = p.views

let take_restamps p =
  let log = List.rev p.restamps_rev in
  p.restamps_rev <- [];
  log
