open Registers

type move =
  | Deliver of { client : int; server : int; to_server : bool }
  | Tick of int
  | Corrupt of int

let link_label ~client ~server ~to_server =
  if to_server then Printf.sprintf "link:c%d->s%d" client server
  else Printf.sprintf "link:s%d->c%d" server client

let move_to_string = function
  | Deliver { client; server; to_server } ->
    "deliver " ^ link_label ~client ~server ~to_server
  | Tick i -> Printf.sprintf "tick %d" i
  | Corrupt i -> Printf.sprintf "corrupt %d" i

let move_equal a b =
  match (a, b) with
  | Deliver x, Deliver y ->
    Int.equal x.client y.client && Int.equal x.server y.server
    && Bool.equal x.to_server y.to_server
  | Tick i, Tick j | Corrupt i, Corrupt j -> Int.equal i j
  | _ -> false

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1)

(* The order of two non-negative ids' decimal renderings, without
   rendering them: their leading digits decide, then the shorter (a
   prefix) sorts first — "10" < "100" < "2".  Ids of one length, the
   common case, are in numeric order. *)
let compare_decimal a b =
  let da = digits a and db = digits b in
  if da = db then Int.compare a b
  else
    let common = Int.min da db in
    match Int.compare (a / pow10 (da - common)) (b / pow10 (db - common)) with
    | 0 -> Int.compare da db
    | c -> c

let compare_ids a1 a2 b1 b2 =
  match compare_decimal a1 a2 with 0 -> compare_decimal b1 b2 | c -> c

let rank = function Deliver _ -> 0 | Tick _ -> 1 | Corrupt _ -> 2

(* Deliveries sort as [String.compare] of their labels: "link:c..."
   before "link:s...", then by the label's first id and its second (the
   '-' after an id sorts below any digit). *)
let compare_move a b =
  match (a, b) with
  | Deliver x, Deliver y -> (
    match Bool.compare y.to_server x.to_server with
    | 0 when x.to_server -> compare_ids x.client y.client x.server y.server
    | 0 -> compare_ids x.server y.server x.client y.client
    | c -> c)
  | Tick i, Tick j | Corrupt i, Corrupt j -> Int.compare i j
  | _ -> Int.compare (rank a) (rank b)

(* The explicit global state.  Everything mutable is owned by one [t] at
   a time, or shared read-only between the clones of a state until one of
   them writes it: {!clone} copies the record, the protocol state and the
   history, and marks every other section shared on both sides, and each
   write site copies the section it writes first ([own_*] below).  What
   stays shared for good is immutable: envelopes, queued lists, history
   ops and the suspended operations' continuations, which reach their
   client state only through the [t] they are resumed with. *)
type t = {
  cfg : Config.t;
  params : Params.t;
  health : Health.t; (* never fed: mc deployments run [Params.paper_wait] *)
  correct : bool array; (* by server slot: not Byzantine *)
  target : int; (* correct deliveries an ss-broadcast waits for *)
  named : int list; (* server slots a menu item names, ascending *)
  mailbox_ordered : bool; (* the menu can corrupt a round tag *)
  mutable servers : Server.t array;
  (* [requests.(ci * n + s)]: in flight from client [ci] to server [s],
     oldest first, each with the number of the broadcast it belongs to;
     [replies.(ci * n + s)] the other way *)
  mutable requests : (Messages.server_envelope * int) list array;
  mutable replies : Messages.client_envelope list array;
  mutable clients : client array; (* ascending client id *)
  proto : proto;
  history : Oracles.History.t;
  (* The search key's cached section hashes: [hashes] holds server [s]'s
     two words at [2s] and [2s + 1], the history's at [2n] and [2n + 1];
     a section's words are valid while its bit of [stale] ({!stale_bit})
     or [hist_stale] is down, and a move that changes what a section
     hashes raises it.  Only {!search_key} writes the words and lowers the
     flags, so a frontier worker's frozen parent is keyed before {!clone}
     freezes it and never after, and the workers cloning it concurrently
     only read it. *)
  mutable hashes : int array;
  mutable stale : int;
  mutable hist_stale : bool;
  (* The sections this state shares with a clone, one bit each
     ({!shared_all} and the [sh_*] bits): a write copies a shared section
     and lowers its bit. *)
  mutable shared : int;
  mutable clock : int;
  (* pending broadcast settlements of a zero target, oldest first: the
     unlabeled events [Tick]s fire *)
  mutable ticks : (int * int) list;
  mutable applied : int list; (* menu indices fired so far, newest first *)
  mutable corrupt_times : int list; (* newest first *)
}

and client = {
  id : int;
  name : string;
  mutable round : int; (* the port's data-link round tag *)
  mutable mailbox : Messages.client_envelope list; (* oldest first *)
  mutable broadcasts : int;
  mutable wait : wait;
}

and wait =
  | Confirming of {
      left : int; (* correct deliveries still awaited *)
      tag : int;
      wanted : Collect.acks option;
      attempt : int;
      k : resume;
    }  (** in an ss-broadcast *)
  | Gathering of { g : Collect.intake; k : resume }
      (** collecting acknowledgments *)
  | Finished

and resume = Collect.attempt -> t -> (t, unit) Collect.step

and proto =
  | Regular_p of Collect.tally (* the reader's *)
  | Atomic_p of Swsr_atomic.wstate * Swsr_atomic.rstate
  | Mwmr_p of Mwmr.state array

let mwmr_cfg = Mwmr.default_config ~m:(List.length (Config.client_ids Mwmr))

let copy_proto = function
  | Regular_p tally -> Regular_p (Collect.copy_tally tally)
  | Atomic_p (w, r) ->
    Atomic_p (Swsr_atomic.copy_wstate w, Swsr_atomic.copy_rstate r)
  | Mwmr_p procs -> Mwmr_p (Array.map Mwmr.copy_state procs)

(* The sections [shared] marks, one bit each: the server and client
   arrays themselves, the two link arrays, the hash words, then each
   client's record (with its intake) and each server's automaton.  The
   bits run out at 62: the servers from that bit on are one section,
   copied together. *)
let sh_servers = 1

let sh_requests = 2

let sh_replies = 4

let sh_clients = 8

let sh_hashes = 16

let shared_all = -1

let sh_client ci = 1 lsl (5 + ci)

let last_bit = 62

(* The first server slot of the section that bit 62 covers. *)
let server_group t = last_bit - 5 - Array.length t.clients

let sh_server t s = 1 lsl Int.min last_bit (5 + Array.length t.clients + s)

(* Server [s]'s bit of [stale]: bit 62 stands for slot 62 and every slot
   above it, and {!search_key} rehashes them all. *)
let stale_bit s = 1 lsl Int.min last_bit s

let clone t =
  if t.shared <> shared_all then t.shared <- shared_all;
  {
    t with
    shared = shared_all;
    proto = copy_proto t.proto;
    history = Oracles.History.copy t.history;
  }

(* Copy section [bit] with [copy] if it is shared, and lower its bit. *)
let own t bit copy =
  if t.shared land bit <> 0 then begin
    copy t;
    t.shared <- t.shared land lnot bit
  end

let copy_servers t = t.servers <- Array.copy t.servers

let copy_requests t = t.requests <- Array.copy t.requests

let copy_replies t = t.replies <- Array.copy t.replies

let copy_clients t = t.clients <- Array.copy t.clients

let copy_hashes t = t.hashes <- Array.copy t.hashes

(* Server [s]'s automaton, this state's own. *)
let own_server t s =
  let bit = sh_server t s in
  if t.shared land bit <> 0 then begin
    own t sh_servers copy_servers;
    let first = server_group t in
    if s < first then t.servers.(s) <- Server.copy t.servers.(s)
    else
      for s = first to Array.length t.servers - 1 do
        t.servers.(s) <- Server.copy t.servers.(s)
      done;
    t.shared <- t.shared land lnot bit
  end;
  t.servers.(s)

(* Client [ci]'s record, this state's own, an intake it collects into
   included. *)
let own_client t ci =
  let bit = sh_client ci in
  if t.shared land bit <> 0 then begin
    own t sh_clients copy_clients;
    let c = t.clients.(ci) in
    let wait =
      match c.wait with
      | Gathering w -> Gathering { w with g = Collect.copy_intake w.g }
      | (Confirming _ | Finished) as w -> w
    in
    t.clients.(ci) <- { c with wait };
    t.shared <- t.shared land lnot bit
  end;
  t.clients.(ci)

let link t ci s = (ci * t.cfg.n) + s

let config t = t.cfg

let history t = t.history

let corrupt_times t = List.sort Int.compare t.corrupt_times

let running c = match c.wait with Finished -> false | Confirming _ | Gathering _ -> true

let client_active t = Array.exists running t.clients

let stuck t =
  Array.fold_right
    (fun c acc -> if running c then c.name :: acc else acc)
    t.clients []

(* Client [id]'s index from [ci] on, or -1 if no client has that id. *)
let rec index_from t id ci =
  if ci >= Array.length t.clients then -1
  else if t.clients.(ci).id = id then ci
  else index_from t id (ci + 1)

let index t id = index_from t id 0

let push q x = q @ [ x ]

(* Server [s]'s instances or one of its links changed: its cached block
   hash is stale. *)
let touch t s = t.stale <- t.stale lor stale_bit s

(* ------------------------------------------------------------------ *)
(* Running the clients                                                *)

(* Resume client [ci]'s automaton to its next round, which it broadcasts
   at once: one envelope queued on each link, in server order, and the
   client waits for [target] correct deliveries of them. *)
let rec run t ci = function
  | Collect.Return () -> (own_client t ci).wait <- Finished
  | Collect.Enter { next; _ } -> run t ci (next t)
  | Collect.Leave { outcome; next } -> run t ci (next outcome t)
  | Collect.Round r ->
    if r.backoff > 0 then invalid_arg "Mc.Sys: backoff needs a retry policy";
    let c = own_client t ci in
    own t sh_requests copy_requests;
    c.round <- (c.round + 1) mod Net.round_modulus;
    c.broadcasts <- c.broadcasts + 1;
    let env =
      { Messages.round = c.round; client = c.id; inst = r.inst; body = r.body;
        span = Obs.Trace_ctx.none }
    in
    for l = link t ci 0 to link t ci (t.cfg.n - 1) do
      t.requests.(l) <- push t.requests.(l) (env, c.broadcasts)
    done;
    t.stale <- -1;
    if t.target = 0 then t.ticks <- push t.ticks (ci, c.broadcasts);
    c.wait <- Confirming { left = t.target; tag = c.round; wanted = r.wanted;
                           attempt = r.attempt; k = r.k }

(* Broadcast number [b] of client [ci] is delivered: resume a round that
   collects nothing, or start its collection with the acknowledgments
   already queued. *)
and settle t ci b =
  let c = t.clients.(ci) in
  match c.wait with
  | Confirming { wanted = None; k; _ } when c.broadcasts = b ->
    run t ci (k Collect.skipped t)
  | Confirming { wanted = Some wanted; tag; attempt; k; _ } when c.broadcasts = b ->
    let c = own_client t ci in
    let g = Collect.intake t.params ~health:t.health ~round:tag ~attempt ~wanted in
    let rec drain () =
      match c.mailbox with
      | [] -> false
      | env :: rest -> c.mailbox <- rest; Collect.consider g env || drain ()
    in
    if g.stop_at <= 0 || drain () then
      run t ci (k (Collect.attempt_of g ~expired:false) t)
    else c.wait <- Gathering { g; k }
  | Confirming _ | Gathering _ | Finished -> ()

(* Slot [s]'s Byzantine behavior, if it has one: [List.assoc_opt] at
   type int, without the polymorphic comparison. *)
let rec byz_kind s = function
  | [] -> None
  | (slot, kind) :: rest -> if Int.equal slot s then Some kind else byz_kind s rest

(* Server [s] handles a request; its acknowledgment joins the reply
   link.  Byzantine slots answer as {!Config.byz_kind} says. *)
let serve t ci s (env : Messages.server_envelope) =
  let ack (env : Messages.server_envelope) body =
    own t sh_replies copy_replies;
    let l = link t ci s in
    t.replies.(l) <- push t.replies.(l)
        { Messages.round = env.round; server = s; body; cause = env.span; span_id = 0 }
  in
  match byz_kind s t.cfg.byz with
  | None -> Server.handle (own_server t s) env ~ack
  | Some Config.Silent -> ()
  | Some (Config.Collude { sn; v }) ->
    ack env (Byzantine.Behavior.collude_reply ~cell:{ Messages.sn; v = Value.int v } env)

(* Every explored step advances the clock by one tick before firing, so
   execution order and virtual-time order coincide: the history the
   oracles see has strictly increasing instants along the explored
   interleaving, exactly as if a wall clock had witnessed it. *)
let bump t = t.clock <- t.clock + 1

(* The FIFO head of a link fires: a request is handled, then counts
   towards its broadcast if the server is correct; an acknowledgment is
   considered by a collecting client and queued otherwise. *)
let deliver t ci s ~to_server =
  let l = link t ci s in
  if to_server then
    match t.requests.(l) with
    | [] -> false
    | (env, b) :: rest ->
      bump t;
      touch t s;
      own t sh_requests copy_requests;
      t.requests.(l) <- rest;
      serve t ci s env;
      let c = t.clients.(ci) in
      (match c.wait with
      | Confirming w when t.correct.(s) && c.broadcasts = b ->
        if w.left <= 1 then settle t ci b
        else (own_client t ci).wait <- Confirming { w with left = w.left - 1 }
      | Confirming _ | Gathering _ | Finished -> ());
      true
  else
    match t.replies.(l) with
    | [] -> false
    | env :: rest ->
      bump t;
      touch t s;
      own t sh_replies copy_replies;
      t.replies.(l) <- rest;
      let c = own_client t ci in
      (match c.wait with
      | Gathering { g; k } ->
        if Collect.consider g env then
          run t ci (k (Collect.attempt_of g ~expired:false) t)
      | Confirming _ | Finished -> c.mailbox <- push c.mailbox env);
      true

(* ------------------------------------------------------------------ *)
(* The clients' workloads                                             *)

let record t ~proc ~kind ~inv ?ts ?ok v =
  t.hist_stale <- true;
  Oracles.History.record t.history ~proc ~kind ~inv:(Sim.Vtime.of_int inv)
    ~resp:(Sim.Vtime.of_int t.clock) ?ts ?ok v

(* [op 1], ..., [op last] in sequence, then [k]. *)
let rec times i last op k t =
  if i > last then k t else op i (fun t -> times (i + 1) last op k t) t

let finished _ = Collect.Return ()

(* Each client's job, as the automaton it starts with: the writer writes
   1..writes and the reader reads [reads] times (MWMR processes do
   both), each operation recorded in the history when it returns. *)
let jobs (cfg : Config.t) params =
  let site = { Collect.params; inst = 0; probe = None } in
  let write ~proc op k next t =
    let inv = t.clock and v = Value.int k in
    op v (fun _ t -> record t ~proc ~kind:Oracles.History.Write ~inv v; next t) t
  in
  let read ~proc op _ next t =
    let inv = t.clock in
    op (fun o t ->
        (match o with
        | Outcome.Ok v -> record t ~proc ~kind:Oracles.History.Read ~inv v
        | Outcome.Degraded _ | Outcome.Timed_out _ ->
          record t ~proc ~kind:Oracles.History.Read ~inv ~ok:false Value.bot);
        next t)
      t
  in
  let writer op = times 1 cfg.writes (write ~proc:"writer" op) finished in
  let reader op = times 1 cfg.reads (read ~proc:"reader" op) finished in
  let max_iterations = cfg.read_budget and modulus = Seqnum.default_modulus in
  match cfg.family with
  | Config.Regular ->
    let tally t = match t.proto with Regular_p r -> r | _ -> assert false in
    [ writer (Swsr_regular.write_op site);
      reader (Swsr_regular.read_op ~max_iterations site ~tally) ]
  | Config.Atomic ->
    let w t = match t.proto with Atomic_p (w, _) -> w | _ -> assert false in
    let r t = match t.proto with Atomic_p (_, r) -> r | _ -> assert false in
    [ writer (Swsr_atomic.write_op site ~modulus w);
      reader (Swsr_atomic.read_op ~max_iterations site ~modulus ~sanity_check:true r) ]
  | Config.Mwmr ->
    List.mapi
      (fun i client_id ->
        let proc = Printf.sprintf "p%d" i in
        let l = Mwmr.layout ~params ~cfg:mwmr_cfg ~id:i ~client_id () in
        let st t = match t.proto with Mwmr_p p -> p.(i) | _ -> assert false in
        let write k next t =
          let inv = t.clock and v = Value.int ((1000 * (i + 1)) + k) in
          Mwmr.write_op l st v
            (fun _ t ->
              let ts = Option.map (fun (e, s) -> (e, s, i)) (st t).last_ts in
              record t ~proc ~kind:Oracles.History.Write ~inv ?ts v;
              next t)
            t
        in
        let read _ next t =
          let inv = t.clock in
          Mwmr.read_op ~max_iterations l st
            (fun result t ->
              (* Epoch-crossing reads perform the line-11 internal write;
                 the checker must see it as a write. *)
              let p = st t in
              List.iter
                (fun (v, e, s) ->
                  record t ~proc ~kind:Oracles.History.Write ~inv ~ts:(e, s, i) v)
                (List.rev p.restamps_rev);
              p.restamps_rev <- [];
              (match result with
              | Outcome.Ok (v, e, s, j) ->
                record t ~proc ~kind:Oracles.History.Read ~inv ~ts:(e, s, j) v
              | Outcome.Degraded _ | Outcome.Timed_out _ ->
                record t ~proc ~kind:Oracles.History.Read ~inv ~ok:false Value.bot);
              next t)
            t
        in
        times 1 cfg.writes write (times 1 cfg.reads read finished))
      (Config.client_ids Config.Mwmr)

let create (cfg : Config.t) =
  let n = cfg.n and ids = Config.client_ids cfg.family in
  let params = Params.create_unchecked ~n ~f:cfg.f ~mode:Params.Async () in
  let correct = Array.init n (fun s -> not (List.mem_assoc s cfg.byz)) in
  let client i id =
    { id; round = 0; mailbox = []; broadcasts = 0; wait = Finished;
      name =
        (match cfg.family with
        | Config.Mwmr -> Printf.sprintf "p%d" i
        | Config.Regular | Config.Atomic -> if i = 0 then "writer" else "reader") }
  in
  let t =
    { cfg; params; correct;
      health = Health.create ~n ();
      (* the first (n - 2t) correct deliveries, as [Net.ss_broadcast] *)
      target =
        Int.min
          (n - (2 * cfg.f))
          (List.length (List.filter Fun.id (Array.to_list correct)));
      named =
        List.sort_uniq Int.compare
          (List.filter_map
             (function
               | Config.Corrupt_server { server; _ } | Config.Crash_recover { server } ->
                 Some server
               | _ -> None)
             cfg.menu);
      mailbox_ordered =
        List.exists (function Config.Corrupt_round _ -> true | _ -> false) cfg.menu;
      servers = Array.init n (fun id -> Server.create ~id);
      requests = Array.make (List.length ids * n) [];
      replies = Array.make (List.length ids * n) [];
      clients = Array.of_list (List.mapi client ids);
      proto =
        (match cfg.family with
        | Config.Regular -> Regular_p (Collect.fresh_tally ())
        | Config.Atomic ->
          Atomic_p (Swsr_atomic.fresh_wstate (), Swsr_atomic.fresh_rstate ())
        | Config.Mwmr -> Mwmr_p (Array.of_list (List.map (fun _ -> Mwmr.fresh_state mwmr_cfg) ids)));
      history = Oracles.History.create ();
      hashes = Array.make ((2 * n) + 2) 0; stale = -1; hist_stale = true; shared = 0;
      clock = 0; ticks = []; applied = []; corrupt_times = [] }
  in
  (* Each client runs to its first broadcast, in client order. *)
  List.iteri (fun ci job -> run t ci (job t)) (jobs cfg params);
  t

(* ------------------------------------------------------------------ *)
(* Move codes                                                         *)

let links (cfg : Config.t) = List.length (Config.client_ids cfg.family) * cfg.n * 2

(* A move as an int: a delivery is its raw link, (client index × n +
   server) × 2 plus 1 from the server; menu item [i] is [links + i] and
   pending event [i] is [links + menu length + i]. *)
let code_of_move (cfg : Config.t) = function
  | Deliver { client; server; to_server } ->
    let rec index ci = function
      | [] -> -1
      | id :: rest -> if Int.equal id client then ci else index (ci + 1) rest
    in
    let ci = index 0 (Config.client_ids cfg.family) in
    if ci < 0 || server < 0 || server >= cfg.n then -1
    else (((ci * cfg.n) + server) * 2) + if to_server then 0 else 1
  | Corrupt i -> if i >= 0 && i < List.length cfg.menu then links cfg + i else -1
  | Tick i -> if i >= 0 then links cfg + List.length cfg.menu + i else -1

let move_of_code (cfg : Config.t) c =
  let links = links cfg in
  if c < 0 then invalid_arg (Printf.sprintf "Mc.Sys.move_of_code: %d" c)
  else if c < links then
    let l = c / 2 in
    (* a link code's client index is below the client count *)
    let rec id ci = function [] -> -1 | x :: rest -> if ci = 0 then x else id (ci - 1) rest in
    Deliver
      { client = id (l / cfg.n) (Config.client_ids cfg.family);
        server = l mod cfg.n; to_server = c land 1 = 0 }
  else
    let m = List.length cfg.menu in
    if c < links + m then Corrupt (c - links) else Tick (c - links - m)

(* Raw link [l] with its server renamed through [ren]. *)
let rename_link (cfg : Config.t) ren l =
  let p = l / 2 in
  let ci = p / cfg.n in
  (((ci * cfg.n) + ren (p - (ci * cfg.n))) * 2) + (l land 1)

(* Deliveries with another client and another server touch disjoint
   process and link state, so they commute from every state.  Anything
   sharing an endpoint (a server's automaton, a client's mailbox and
   fiber), and every corruption and pending event, is dependent: the
   conservative relation the sleep-set reduction is sound for
   ([--cross-check] runs without it). *)
let independent (cfg : Config.t) a b =
  let links = links cfg and n = cfg.n in
  a >= 0 && a < links && b >= 0 && b < links
  && a / 2 / n <> b / 2 / n
  && a / 2 mod n <> b / 2 mod n

(* ------------------------------------------------------------------ *)
(* Enabled moves                                                      *)

(* The server slot after [s] in {!compare_decimal} order, [n] after the
   last: an id's one-digit extensions sort right after it and before the
   next id ("1", "10", "11", "2").  Below eleven slots this is [s + 1].
   [after_extensions] skips them: [s]'s next sibling, or its parent's. *)
let rec after_extensions n s =
  if s < 10 then if s < 9 then s + 1 else n
  else if s mod 10 < 9 && s + 1 < n then s + 1
  else after_extensions n (s / 10)

let next_slot n s = if s > 0 && s * 10 < n then s * 10 else after_extensions n s

type codes = { mutable buf : int array; mutable len : int }

let codes () = { buf = [||]; len = 0 }

(* One code per pending event from [code] on, written from [buf.(k)];
   the next free position. *)
let rec put_ticks buf k code = function
  | [] -> k
  | _ :: rest -> buf.(k) <- code; put_ticks buf (k + 1) (code + 1) rest

(* One code per link with an envelope in flight, in {!compare_move}
   order — requests by (client, server), then replies by (server,
   client) — then the pending settlements and the unused menu items.
   Client ids all have three digits, so client order is their decimal
   order. *)
let enabled_codes t b =
  let n = t.cfg.n and clients = Array.length t.clients in
  let links = 2 * Array.length t.requests and m = List.length t.cfg.menu in
  let need = links + m + List.length t.ticks in
  if Array.length b.buf < need then b.buf <- Array.make need 0;
  let buf = b.buf and k = ref 0 in
  for ci = 0 to clients - 1 do
    let s = ref 0 in
    while !s < n do
      (match t.requests.(link t ci !s) with
      | [] -> ()
      | _ :: _ -> buf.(!k) <- 2 * link t ci !s; incr k);
      s := next_slot n !s
    done
  done;
  let s = ref 0 in
  while !s < n do
    for ci = 0 to clients - 1 do
      match t.replies.(link t ci !s) with
      | [] -> ()
      | _ :: _ -> buf.(!k) <- (2 * link t ci !s) + 1; incr k
    done;
    s := next_slot n !s
  done;
  k := put_ticks buf !k (links + m) t.ticks;
  if m > 0 && client_active t then
    for i = 0 to m - 1 do
      if not (List.mem i t.applied) then begin buf.(!k) <- links + i; incr k end
    done;
  b.len <- !k

let rec links_empty a i =
  i >= Array.length a || match a.(i) with [] -> links_empty a (i + 1) | _ :: _ -> false

let terminal t =
  (match t.ticks with [] -> true | _ :: _ -> false)
  && links_empty t.requests 0 && links_empty t.replies 0
  && (match t.cfg.menu with
      | [] -> true
      | _ :: _ -> (not (client_active t)) || List.compare_lengths t.applied t.cfg.menu = 0)

(* ------------------------------------------------------------------ *)
(* Applying a move                                                    *)

let apply_corruption t = function
  | Config.Corrupt_server { server; sn; v } ->
    touch t server;
    let srv = own_server t server in
    let insts =
      match Server.instances srv with
      | [] -> [ (0, Server.instance srv 0) ]
      | l -> l
    in
    let cell = { Messages.sn; v = Value.int v } in
    List.iter
      (fun ((_, i) : int * Server.instance) ->
        i.last_val <- cell;
        i.helping <- Some cell)
      insts
  | Config.Corrupt_reader { pwsn; v } -> (
    match t.proto with
    | Atomic_p (_, r) ->
      r.pwsn <- Seqnum.norm ~modulus:Seqnum.default_modulus pwsn;
      r.pv <- Value.int v
    | Regular_p _ | Mwmr_p _ -> ())
  | Config.Corrupt_writer_sn sn -> (
    match t.proto with
    | Atomic_p (w, _) -> w.wsn <- Seqnum.norm ~modulus:Seqnum.default_modulus sn
    | Regular_p _ | Mwmr_p _ -> ())
  | Config.Corrupt_round { client; round } ->
    let ci = index t client in
    if ci >= 0 then (own_client t ci).round <- abs round mod Net.round_modulus
  | Config.Crash_recover { server } ->
    (* Crash plus recovery with lost volatile state, collapsed into one
       model step: the automaton keeps running (deliveries during the
       down window are a scheduling choice the explorer already owns) but
       its state reverts to pristine bot content. *)
    touch t server;
    let srv = own_server t server in
    (match Server.instances srv with
    | [] -> ignore (Server.instance srv 0)
    | _ :: _ -> ());
    Server.reset srv

(* An inapplicable move: raise naming it under [strict], else [false]. *)
let refuse ~strict t c why =
  if not strict then false
  else
    let move =
      if c < 0 then Printf.sprintf "code %d" c else move_to_string (move_of_code t.cfg c)
    in
    invalid_arg (Printf.sprintf "Mc.Sys.apply: %s (%s)" why move)

(* A delivery fires its link's FIFO head, the only delivery the paper's
   model admits next on that channel, by the client's index: no client is
   looked up by id.  A menu item fires once, and only while some client
   runs; a pending event fires by its position. *)
let apply ?(strict = true) t c =
  let n = t.cfg.n and links = 2 * Array.length t.requests in
  if c < 0 then refuse ~strict t c "no such move"
  else if c < links then
    deliver t (c / 2 / n) (c / 2 mod n) ~to_server:(c land 1 = 0)
    || refuse ~strict t c "no pending delivery on that link"
  else
    let i = c - links in
    match List.nth_opt t.cfg.menu i with
    | Some item ->
      if List.mem i t.applied then refuse ~strict t c "menu item already fired"
      else if not (client_active t) then refuse ~strict t c "no client is running"
      else begin
        bump t;
        t.applied <- i :: t.applied;
        t.corrupt_times <- t.clock :: t.corrupt_times;
        t.hist_stale <- true;
        apply_corruption t item;
        true
      end
    | None -> (
      let i = i - List.length t.cfg.menu in
      match List.nth_opt t.ticks i with
      | None -> refuse ~strict t c "no such unlabeled event"
      | Some (ci, b) ->
        bump t;
        t.ticks <- List.filteri (fun j _ -> j <> i) t.ticks;
        settle t ci b;
        true)

(* ------------------------------------------------------------------ *)
(* One walk, two sinks                                                *)

(* Two multiply-xorshift lanes, each with its own odd multiplier and
   shift.  Not cryptographic: the search key is made of them, and no
   artifact ever records one. *)
let lane_a h w = let x = (h lxor w) * 0x2545F4914F6CDD1D in x lxor (x lsr 29)

let lane_b h w = let x = (h + w) * 0x1E3779B97F4A7C15 in x lxor (x lsr 32)

let avalanche h =
  let h = (h lxor (h lsr 31)) * 0x3F58476D1CE4E5B9 in
  let h = (h lxor (h lsr 29)) * 0x14D049BB133111EB in
  h lxor (h lsr 32)

(* A hash being fed, one word into both lanes at a time. *)
type lanes = { mutable a : int; mutable b : int }

let lanes () = { a = 0x0123456789ABCDEF; b = 0x3DC94C3A046D678B }

let word h w = h.a <- lane_a h.a w; h.b <- lane_b h.b w

(* A finished hash as one element: its first word into lane a, its
   second into lane b. *)
let words h a b = h.a <- lane_a h.a a; h.b <- lane_b h.b b

let finish h = (avalanche h.a, avalanche h.b)

(* Each section of a state is described once, by a walk that writes into
   a sink: the fingerprint's text, or the search key's hash words.  The
   text's bytes are an artifact format — committed mc counterexamples
   store terminal fingerprints — and the golden table in
   test/test_mc.ml pins them; the search never renders.  The key must
   partition states exactly as the text does, so wherever the text
   relies on punctuation to be unambiguous ([lit]), the walk also feeds
   the key a list length ([len]) or a constructor tag ([tag]). *)
type sink = Text of Buffer.t | Words of lanes

let num k n = match k with Text b -> Value.add_decimal b n | Words h -> word h n

let lit k s = match k with Text b -> Buffer.add_string b s | Words _ -> ()

let tag k s w = match k with Text b -> Buffer.add_string b s | Words h -> word h w

let len k n = match k with Text _ -> () | Words h -> word h n

let name k s =
  match k with
  | Text b -> Buffer.add_string b s
  | Words h -> word h (String.length s); String.iter (fun c -> word h (Char.code c)) s

let epoch k (e : Epoch.t) =
  num k e.s; lit k "{"; len k (List.length e.a);
  List.iter (fun x -> num k x; lit k " ") e.a;
  lit k "}"

(* The text is {!Value.add_to_buffer}'s; the key feeds the same fields. *)
let value k v =
  let rec go h = function
    | Value.Bot -> word h 0
    | Value.Int i -> word h 1; word h i
    | Value.Str s -> word h 2; name (Words h) s
    | Value.Stamped { data; epoch = e; seq } -> word h 3; go h data; epoch (Words h) e; word h seq
  in
  match k with Text b -> Value.add_to_buffer b v | Words h -> go h v

let render f = let b = Buffer.create 64 in f (Text b); Buffer.contents b

(* A multiset: the text writes its members' renderings sorted, [sep]
   between them; the key sums the members' finished hashes, which
   ignores their order. *)
let bag k ~sep f xs =
  match k with
  | Text b ->
    List.map (fun x -> render (fun m -> f m x)) xs
    |> List.sort String.compare
    |> List.iteri (fun i m -> if i > 0 then Buffer.add_string b sep; Buffer.add_string b m)
  | Words h ->
    let sa = ref 0 and sb = ref 0 in
    List.iter
      (fun x ->
        let e = lanes () in
        f (Words e) x;
        sa := !sa + avalanche e.a;
        sb := !sb + avalanche e.b)
      xs;
    words h !sa !sb

let cell k (c : Messages.cell) = num k c.sn; lit k ":"; value k c.v

let help k = function None -> tag k "-" 0 | Some c -> tag k "" 1; cell k c

let to_server k (env : Messages.server_envelope) =
  num k env.round; lit k "/"; num k env.client; lit k "/"; num k env.inst; lit k "/";
  match env.body with
  | Messages.Write c -> tag k "W" 0; cell k c
  | Messages.New_help c -> tag k "H" 1; cell k c
  | Messages.Read nr -> if nr then tag k "Rn" 2 else tag k "Ro" 3

(* An ack as [round/origin/body], its origin given by the caller. *)
let to_client k ~origin (env : Messages.client_envelope) =
  num k env.round; lit k "/"; num k origin; lit k "/";
  match env.body with
  | Messages.Ack_write h -> tag k "a" 0; help k h
  | Messages.Ack_read (c, h) -> tag k "A" 1; cell k c; lit k ","; help k h

let ts k = function
  | None -> tag k "-" 0
  | Some (e, s, j) -> tag k "" 1; epoch k e; lit k "/"; num k s; lit k "/"; num k j

(* The oracles only compare instants for order, so the fingerprint keeps
   the order type of the recorded instants rather than their absolute
   values: order-isomorphic pasts merge, which is what lets permuted
   interleavings converge on one canonical state.  An instant's rank is
   its index among the sorted distinct instants of [ops] and
   [corrupt]. *)
let ranks ops corrupt =
  let times =
    List.fold_left
      (fun acc (o : Oracles.History.op) ->
        Sim.Vtime.to_int o.inv :: Sim.Vtime.to_int o.resp :: acc)
      corrupt ops
    |> List.sort_uniq Int.compare |> Array.of_list
  in
  fun v ->
    let lo = ref 0 and hi = ref (Array.length times - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if times.(mid) < v then lo := mid + 1 else hi := mid
    done;
    !lo

let ranked_history k t =
  let ops = Oracles.History.ops t.history and corrupt = corrupt_times t in
  let rank = ranks ops corrupt in
  len k (List.length ops);
  List.iter
    (fun (o : Oracles.History.op) ->
      name k o.proc;
      (match o.kind with
      | Oracles.History.Write -> tag k "|W|" 0
      | Oracles.History.Read -> tag k "|R|" 1);
      num k (rank (Sim.Vtime.to_int o.inv)); lit k "|";
      num k (rank (Sim.Vtime.to_int o.resp)); lit k "|";
      value k o.value;
      if o.ok then tag k "|true|" 1 else tag k "|false|" 0;
      ts k o.ts;
      lit k ";")
    ops;
  lit k "X:"; len k (List.length corrupt);
  List.iter (fun ct -> num k (rank ct); lit k " ") corrupt

(* Everything attached to server slot [s], WITHOUT its id: the automaton
   instances (or the byzantine behavior marker — the assignment is
   config-constant, but two byzantine slots with different behaviors
   must not be interchangeable) and the in-flight payloads on its links,
   per client in client order.  Two servers with equal blocks are
   observationally interchangeable. *)
let server_block k t s =
  (match byz_kind s t.cfg.byz with
  | Some Config.Silent -> tag k "Bs" 1
  | Some (Config.Collude { sn; v }) -> tag k "Bc" 2; num k sn; lit k ":"; num k v
  | None ->
    let insts = Server.instances t.servers.(s) in
    tag k "" 0; len k (List.length insts);
    List.iter
      (fun ((inst, i) : int * Server.instance) ->
        num k inst; lit k "="; cell k i.last_val;
        lit k "+"; help k i.helping; lit k ",")
      insts);
  Array.iteri
    (fun ci c ->
      let reqs = t.requests.(link t ci s) and reps = t.replies.(link t ci s) in
      lit k "|c"; num k c.id; lit k ">"; len k (List.length reqs);
      List.iter (fun (env, _) -> to_server k env; lit k ";") reqs;
      lit k "<"; len k (List.length reps);
      (* the server field of an ack on this server's own reply link is
         self-referential; it stays 0 *)
      List.iter (fun env -> to_client k ~origin:0 env; lit k ";") reps)
    t.clients

(* Server [s]'s reference key: per client in client order, the bag of its
   queued acks with origin 0 — or of their queue positions when order
   matters. *)
let refkey k t s =
  Array.iteri
    (fun ci c ->
      let mine (env : Messages.client_envelope) = env.server = s in
      match List.filter mine c.mailbox with
      | [] -> ()
      | acks ->
        num k ci; lit k "["; len k (List.length acks);
        (if t.mailbox_ordered then
           bag k ~sep:","
             (fun k pos -> lit k "@"; num k pos)
             (List.concat (List.mapi (fun pos env -> if mine env then [ pos ] else []) c.mailbox))
         else bag k ~sep:"," (to_client ~origin:0) acks);
        lit k "];")
    t.clients

(* Everything between the server blocks and the history: client ports,
   client persistent state, the spent menu and client progress. *)
let tail k t ren =
  (* client ports: round tag and queued acks (ack origins renamed, and
     the queue a multiset unless a round corruption could make order
     matter); link traffic lives inside the server blocks *)
  Array.iter
    (fun c ->
      let ack k (env : Messages.client_envelope) = to_client k ~origin:(ren env.server) env in
      lit k "c"; num k c.id; lit k " r"; num k c.round; lit k " q[";
      len k (List.length c.mailbox);
      if t.mailbox_ordered then List.iter (fun env -> ack k env; lit k ";") c.mailbox
      else begin
        bag k ~sep:";" ack c.mailbox;
        if c.mailbox <> [] then lit k ";"
      end;
      lit k "]\n")
    t.clients;
  (* client persistent state *)
  (match t.proto with
  | Regular_p _ -> tag k "reg" 0
  | Atomic_p (w, r) ->
    tag k "wsn=" 1; num k w.wsn; lit k ";pwsn="; num k r.pwsn;
    lit k ";pv="; value k r.pv
  | Mwmr_p procs ->
    tag k "" 2;
    Array.iteri
      (fun i (p : Mwmr.state) ->
        lit k "p"; num k i; lit k ":";
        (match p.last_ts with
        | None -> tag k "-" 0
        | Some (e, s) -> tag k "" 1; epoch k e; lit k "/"; num k s);
        lit k ";eo="; num k p.epochs_opened; lit k ";";
        len k (List.length p.restamps_rev);
        List.iter
          (fun (v, e, s) -> value k v; lit k "@"; epoch k e; lit k "/"; num k s; lit k ",")
          (List.rev p.restamps_rev);
        Array.iter (fun (w : Swsr_atomic.wstate) -> lit k "w"; num k w.wsn; lit k ",") p.own;
        Array.iter
          (fun (r : Swsr_atomic.rstate) ->
            lit k "r"; num k r.pwsn; lit k ":"; value k r.pv; lit k ",")
          p.views;
        lit k "\n")
      procs);
  (* which corruption choices are still available *)
  lit k "\nM:"; len k (List.length t.applied);
  List.iter (fun i -> num k i; lit k " ") (List.sort Int.compare t.applied);
  (* client progress; the names are config constants *)
  Array.iter
    (fun c -> lit k c.name; if running c then tag k "r" 1 else tag k "d" 0)
    t.clients;
  lit k "\n"

(* The order of slots [x] and [y] by their word pairs in [w] (slot [s]'s
   at [2s] and [2s + 1]). *)
let compare_words w x y =
  match Int.compare w.(2 * x) w.(2 * y) with
  | 0 -> Int.compare w.((2 * x) + 1) w.((2 * y) + 1)
  | c -> c

(* Sort the slots [order.(lo)], ..., [order.(hi - 1)] in place by their
   word pairs in [w], then by id: a handful of slots, so by insertion. *)
let sort_slots order lo hi w =
  for i = lo + 1 to hi - 1 do
    let x = order.(i) and j = ref (i - 1) in
    while
      !j >= lo
      && match compare_words w order.(!j) x with 0 -> order.(!j) > x | c -> c > 0
    do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- x
  done

(* The buffers one canonicalization writes, per state size: the
   canonical order, the renaming [ren] and the representatives [rep] it
   computes, and the reference keys of tied slots as word pairs.  A
   search keys every state through one of these per searcher, so keying
   allocates none of them. *)
type scratch = {
  order : int array; (* canonical position -> slot *)
  canon : int array; (* slot -> canonical position *)
  reps : int array; (* slot -> least slot of its automorphism class *)
  refs : int array; (* slot [s]'s reference key at [2s] and [2s + 1] *)
  ren : int -> int;
  rep : int -> int;
}

let scratch (cfg : Config.t) =
  let n = cfg.n in
  let canon = Array.make n 0 and reps = Array.make n 0 in
  { order = Array.make n 0; canon; reps; refs = Array.make (2 * n) 0;
    ren = (fun s -> if s >= 0 && s < n then canon.(s) else s);
    rep = (fun s -> if s >= 0 && s < n then reps.(s) else s) }

(* Symmetry reduction.  Permuting server slots is meant to yield an
   isomorphic state with the same verdicts: broadcasts and links are
   uniform, and the oracles only read the client-side history.  One
   protocol step does branch on a server's index, though:
   [Quorum.find_in] returns the first value to reach its threshold in
   slot order, so two permuted states can decide a read differently.
   Until that is fixed (ROADMAP, "Make the search key sound"), the
   reduction is a heuristic, and which states a search explores can
   depend on its move order.  Only slots named by a corruption-menu item
   keep their identity (a pending [Corrupt_server {server=2}]
   distinguishes slot 2).  Both the fingerprint and the search key see
   the state in canonical coordinates — named slots first in id order,
   then the anonymous slots sorted by their blocks' word pairs
   ([blocks]), whose ties are exactly the equal blocks — and leave the
   renaming in the scratch so the checker can put sleep sets into the
   same coordinates (comparing sleep sets across symmetry-merged states
   is only sound canonically).

   A server id also escapes into client mailboxes (ack envelopes name
   their origin).  The references to a server ([refkey] writes slot [s]'s
   word pair into [refs]) are permutation-invariant, so refining the sort
   with them orders the servers a permutation could tell apart; servers
   left tied (equal block, equal references) are treated as
   interchangeable, and the id breaks the tie.  A reference key is only
   ever compared between servers with equal blocks, so only those compute
   one.

   The only mailbox consumer is [Collect.attempt_once], which files
   responses into a per-server slots array — so the arrival ORDER of
   queued acks is semantically inert and a mailbox, a server's references
   included, is treated as a multiset.  Its [Health] bookkeeping is left
   out too: only an attempt with a policy deadline feeds it, and mc
   deployments run [Params.paper_wait].  The one exception to
   order-blindness: an envelope whose round tag has gone stale is
   normally dead forever, but a pending [Corrupt_round] item could
   resurrect it, and whether a stale envelope was consumed-and-dropped or
   still queued does depend on order.  So order is only erased when the
   menu carries no round corruption ([mailbox_ordered] is down). *)
let canonical sc t ~blocks ~refs ~refkey =
  let n = Array.length t.servers and order = sc.order and reps = sc.reps in
  (* with every mailbox empty, every reference key is empty *)
  let quiet = ref true in
  for ci = 0 to Array.length t.clients - 1 do
    match t.clients.(ci).mailbox with [] -> () | _ :: _ -> quiet := false
  done;
  (* named slots first, in id order, then the anonymous ones by block *)
  let rec place i = function [] -> i | s :: rest -> order.(i) <- s; place (i + 1) rest in
  let named = place 0 t.named in
  let k = ref named in
  for s = 0 to n - 1 do
    reps.(s) <- s;
    if not (List.mem s t.named) then begin order.(!k) <- s; incr k end
  done;
  sort_slots order named n blocks;
  (* Servers still tied after the (block, refkey) sort are treated as
     interchangeable.  Map each to the least member of its tie group:
     the explorer only fires deliveries at class representatives (equal
     blocks include the link contents, so a representative's move is
     enabled whenever a class member's is). *)
  let i = ref named in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && compare_words blocks order.(!i) order.(!j) = 0 do incr j done;
    if !j - !i > 1 then begin
      if !quiet then
        for k = !i + 1 to !j - 1 do reps.(order.(k)) <- order.(!i) done
      else begin
        for k = !i to !j - 1 do refkey order.(k) done;
        sort_slots order !i !j refs;
        for k = !i + 1 to !j - 1 do
          if compare_words refs order.(k - 1) order.(k) = 0 then
            reps.(order.(k)) <- reps.(order.(k - 1))
        done
      end
    end;
    i := !j
  done;
  for pos = 0 to n - 1 do
    sc.canon.(order.(pos)) <- pos
  done

(* Each string's rank among [keys] as a word pair, [(rank, 0)] at [2s]:
   how many keys sort below it, so comparing ranks compares the
   strings. *)
let ranks_of keys =
  let w = Array.make (2 * Array.length keys) 0 in
  Array.iteri
    (fun s k -> Array.iter (fun k' -> if String.compare k' k < 0 then w.(2 * s) <- w.(2 * s) + 1) keys)
    keys;
  w

(* The only place a state meets MD5: the digest artifacts record.  The
   whole text is rendered afresh on every call, into buffers of its own,
   and nothing is written into the state.  Blocks and reference keys are
   ordered as strings, through their ranks. *)
let fingerprint_ex t =
  let sc = scratch t.cfg and n = Array.length t.servers in
  let blocks = Array.init n (fun s -> render (fun k -> server_block k t s)) in
  canonical sc t ~blocks:(ranks_of blocks)
    ~refs:(ranks_of (Array.init n (fun s -> render (fun k -> refkey k t s))))
    ~refkey:ignore;
  let b = Buffer.create 512 in
  (* servers in canonical order *)
  Array.iteri
    (fun pos s ->
      Buffer.add_char b 's'; Value.add_decimal b pos; Buffer.add_char b ':';
      Buffer.add_string b blocks.(s); Buffer.add_char b '\n')
    sc.order;
  tail (Text b) t sc.ren;
  ranked_history (Text b) t;
  (Digest.to_hex (Digest.string (Buffer.contents b)), sc.ren, sc.rep)

let fingerprint t =
  let d, _, _ = fingerprint_ex t in
  d

(* Walk [f] into fresh lanes and finish them into the word pair at
   [w.(off)] and [w.(off + 1)]. *)
let store w off f =
  let h = lanes () in
  f (Words h);
  w.(off) <- avalanche h.a;
  w.(off + 1) <- avalanche h.b

(* The fingerprint's walk into hash words: the stale section hashes are
   refreshed, the anonymous slots sorted by their hash words, and the
   blocks' words in that order, the tail and the history's words folded
   into one pair of lanes.  Nothing is rendered, and no MD5 runs. *)
let search_key sc t =
  let n = Array.length t.servers in
  if t.stale <> 0 || t.hist_stale then own t sh_hashes copy_hashes;
  let h = t.hashes in
  if t.stale <> 0 then begin
    for s = 0 to n - 1 do
      if t.stale land stale_bit s <> 0 then store h (2 * s) (fun k -> server_block k t s)
    done;
    t.stale <- 0
  end;
  if t.hist_stale then begin
    store h (2 * n) (fun k -> ranked_history k t);
    t.hist_stale <- false
  end;
  canonical sc t ~blocks:h ~refs:sc.refs ~refkey:(fun s ->
      store sc.refs (2 * s) (fun k -> refkey k t s));
  let key = lanes () in
  for pos = 0 to n - 1 do
    let s = sc.order.(pos) in
    words key h.(2 * s) h.((2 * s) + 1)
  done;
  tail (Words key) t sc.ren;
  words key h.(2 * n) h.((2 * n) + 1);
  let k1, k2 = finish key in
  (k1, k2, sc.ren, sc.rep)
