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

(* Deliveries with another client and another server touch disjoint
   process and link state, so they commute from every state.  Anything
   sharing an endpoint (a server's automaton, a client's mailbox and
   fiber), and every corruption, is dependent: the conservative relation
   the sleep-set reduction is sound for ([--cross-check] runs without
   it). *)
let independent a b =
  match (a, b) with
  | Deliver x, Deliver y -> x.client <> y.client && x.server <> y.server
  | _ -> false

(* The explicit global state.  Everything mutable is owned by exactly one
   [t] — {!clone} copies it — and everything shared between clones is
   immutable: envelopes, queued lists, history ops and the suspended
   operations' continuations, which reach their client state only through
   the [t] they are resumed with. *)
type t = {
  cfg : Config.t;
  params : Params.t;
  health : Health.t; (* never fed: mc deployments run [Params.paper_wait] *)
  correct : bool array; (* by server slot: not Byzantine *)
  target : int; (* correct deliveries an ss-broadcast waits for *)
  named : int list; (* server slots a menu item names, ascending *)
  mailbox_ordered : bool; (* the menu can corrupt a round tag *)
  servers : Server.t array;
  (* [requests.(ci).(s)]: in flight from client [ci] to server [s], oldest
     first, each with the number of the broadcast it belongs to;
     [replies.(ci).(s)] the other way *)
  requests : (Messages.server_envelope * int) list array array;
  replies : Messages.client_envelope list array array;
  clients : client array; (* ascending client id *)
  proto : proto;
  history : Oracles.History.t;
  (* The search key's cached section hashes: [hashes] holds server [s]'s
     two words at [2s] and [2s + 1], the history's at [2n] and [2n + 1];
     a section's words are valid while its flag ([stale.(s)],
     [hist_stale]) is down, and a move that changes what a section hashes
     raises its flag.  Only {!search_key} writes the words and lowers the
     flags, so a frontier worker's frozen parent is keyed before {!clone}
     freezes it and never after, and the workers cloning it concurrently
     only read it. *)
  hashes : int array;
  stale : bool array;
  mutable hist_stale : bool;
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

let clone t =
  {
    t with
    servers = Array.map Server.copy t.servers;
    requests = Array.map Array.copy t.requests;
    replies = Array.map Array.copy t.replies;
    clients =
      Array.map
        (fun c ->
          let wait =
            match c.wait with
            | Gathering w -> Gathering { w with g = Collect.copy_intake w.g }
            | (Confirming _ | Finished) as w -> w
          in
          { c with wait })
        t.clients;
    proto = copy_proto t.proto;
    history = Oracles.History.copy t.history;
    hashes = Array.copy t.hashes;
    stale = Array.copy t.stale;
  }

let config t = t.cfg

let history t = t.history

let corrupt_times t = List.sort Int.compare t.corrupt_times

let running c = match c.wait with Finished -> false | Confirming _ | Gathering _ -> true

let client_active t = Array.exists running t.clients

let stuck t =
  Array.fold_right
    (fun c acc -> if running c then c.name :: acc else acc)
    t.clients []

(* Client [id]'s index, or -1 if no client has that id. *)
let index t id =
  let rec go ci =
    if ci >= Array.length t.clients then -1
    else if t.clients.(ci).id = id then ci
    else go (ci + 1)
  in
  go 0

let push q x = q @ [ x ]

(* Server [s]'s instances or one of its links changed: its cached block
   hash is stale. *)
let touch t s = t.stale.(s) <- true

(* ------------------------------------------------------------------ *)
(* Running the clients                                                *)

(* Resume client [ci]'s automaton to its next round, which it broadcasts
   at once: one envelope queued on each link, in server order, and the
   client waits for [target] correct deliveries of them. *)
let rec run t ci = function
  | Collect.Return () -> t.clients.(ci).wait <- Finished
  | Collect.Enter { next; _ } -> run t ci (next t)
  | Collect.Leave { outcome; next } -> run t ci (next outcome t)
  | Collect.Round r ->
    if r.backoff > 0 then invalid_arg "Mc.Sys: backoff needs a retry policy";
    let c = t.clients.(ci) and q = t.requests.(ci) in
    c.round <- (c.round + 1) mod Net.round_modulus;
    c.broadcasts <- c.broadcasts + 1;
    let env =
      { Messages.round = c.round; client = c.id; inst = r.inst; body = r.body;
        span = Obs.Trace_ctx.none }
    in
    Array.iteri (fun s l -> q.(s) <- push l (env, c.broadcasts)) q;
    Array.fill t.stale 0 (Array.length t.stale) true;
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

(* Server [s] handles a request; its acknowledgment joins the reply
   link.  Byzantine slots answer as {!Config.byz_kind} says. *)
let serve t ci s (env : Messages.server_envelope) =
  let ack (env : Messages.server_envelope) body =
    t.replies.(ci).(s) <- push t.replies.(ci).(s)
        { Messages.round = env.round; server = s; body; cause = env.span; span_id = 0 }
  in
  match List.assoc_opt s t.cfg.byz with
  | None -> Server.handle t.servers.(s) env ~ack
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
  let c = t.clients.(ci) in
  match (to_server, t.requests.(ci).(s), t.replies.(ci).(s)) with
  | true, (env, b) :: rest, _ ->
    bump t;
    touch t s;
    t.requests.(ci).(s) <- rest;
    serve t ci s env;
    (match c.wait with
    | Confirming w when t.correct.(s) && c.broadcasts = b ->
      if w.left <= 1 then settle t ci b
      else c.wait <- Confirming { w with left = w.left - 1 }
    | Confirming _ | Gathering _ | Finished -> ());
    true
  | false, _, env :: rest ->
    bump t;
    touch t s;
    t.replies.(ci).(s) <- rest;
    (match c.wait with
    | Gathering { g; k } ->
      if Collect.consider g env then
        run t ci (k (Collect.attempt_of g ~expired:false) t)
    | Confirming _ | Finished -> c.mailbox <- push c.mailbox env);
    true
  | true, [], _ | false, _, [] -> false

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
      requests = Array.init (List.length ids) (fun _ -> Array.make n []);
      replies = Array.init (List.length ids) (fun _ -> Array.make n []);
      clients = Array.of_list (List.mapi client ids);
      proto =
        (match cfg.family with
        | Config.Regular -> Regular_p (Collect.fresh_tally ())
        | Config.Atomic ->
          Atomic_p (Swsr_atomic.fresh_wstate (), Swsr_atomic.fresh_rstate ())
        | Config.Mwmr -> Mwmr_p (Array.of_list (List.map (fun _ -> Mwmr.fresh_state mwmr_cfg) ids)));
      history = Oracles.History.create ();
      hashes = Array.make ((2 * n) + 2) 0; stale = Array.make n true; hist_stale = true;
      clock = 0; ticks = []; applied = []; corrupt_times = [] }
  in
  (* Each client runs to its first broadcast, in client order. *)
  List.iteri (fun ci job -> run t ci (job t)) (jobs cfg params);
  t

(* ------------------------------------------------------------------ *)
(* Enabled moves                                                      *)

(* [f s] for every server slot [s < n], in descending {!compare_decimal}
   order: an id's one-digit extensions sort right after it and before
   the next id, so in reverse they come first.  Below eleven slots this
   is [n - 1], ..., [0]. *)
let rec down_from n f p =
  if p > 0 && p * 10 < n then
    for d = 9 downto 0 do
      if (p * 10) + d < n then down_from n f ((p * 10) + d)
    done;
  f p

let servers_descending n f =
  for d = Int.min 9 (n - 1) downto 0 do
    down_from n f d
  done

(* One [Deliver] per link with an envelope in flight, produced in
   {!compare_move} order — requests by (client, server), then replies by
   (server, client) — and built back to front onto the pending
   settlements (the [Tick]s) and the unused menu items.  Client ids all
   have three digits, so client order is their decimal order. *)
let enabled t =
  let corrupts =
    if t.cfg.menu = [] || not (client_active t) then []
    else
      List.mapi (fun i _ -> i) t.cfg.menu
      |> List.filter (fun i -> not (List.mem i t.applied))
      |> List.map (fun i -> Corrupt i)
  in
  let acc =
    ref (match t.ticks with [] -> corrupts | ticks -> List.mapi (fun i _ -> Tick i) ticks @ corrupts)
  in
  let add ci ~to_server server = function
    | [] -> ()
    | _ :: _ -> acc := Deliver { client = t.clients.(ci).id; server; to_server } :: !acc
  in
  let n = t.cfg.n and clients = Array.length t.clients in
  servers_descending n (fun s ->
      for ci = clients - 1 downto 0 do
        add ci ~to_server:false s t.replies.(ci).(s)
      done);
  for ci = clients - 1 downto 0 do
    servers_descending n (fun s -> add ci ~to_server:true s t.requests.(ci).(s))
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Applying a move                                                    *)

let apply_corruption t = function
  | Config.Corrupt_server { server; sn; v } ->
    touch t server;
    let srv = t.servers.(server) in
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
    if ci >= 0 then t.clients.(ci).round <- abs round mod Net.round_modulus
  | Config.Crash_recover { server } ->
    (* Crash plus recovery with lost volatile state, collapsed into one
       model step: the automaton keeps running (deliveries during the
       down window are a scheduling choice the explorer already owns) but
       its state reverts to pristine bot content. *)
    touch t server;
    let srv = t.servers.(server) in
    (match Server.instances srv with
    | [] -> ignore (Server.instance srv 0)
    | _ :: _ -> ());
    Server.reset srv

let nth l i = if i < 0 then None else List.nth_opt l i

let apply ?(strict = true) t mv =
  let fail msg =
    if strict then
      invalid_arg
        (Printf.sprintf "Mc.Sys.apply: %s (%s)" msg (move_to_string mv))
    else false
  in
  match mv with
  | Deliver { client; server; to_server } ->
    (* The link's FIFO head: the only delivery the paper's model admits
       next on this channel. *)
    (let ci = index t client in
     ci >= 0 && server >= 0 && server < t.cfg.n && deliver t ci server ~to_server)
    || fail "no pending delivery on that link"
  | Tick i -> (
    match nth t.ticks i with
    | None -> fail "no such unlabeled event"
    | Some (ci, b) ->
      bump t;
      t.ticks <- List.filteri (fun j _ -> j <> i) t.ticks;
      settle t ci b;
      true)
  | Corrupt i ->
    if List.mem i t.applied then fail "menu item already fired"
    else if not (client_active t) then fail "no client is running"
    else (
      match nth t.cfg.menu i with
      | None -> fail "no such menu item"
      | Some c ->
        bump t;
        t.applied <- i :: t.applied;
        t.corrupt_times <- t.clock :: t.corrupt_times;
        t.hist_stale <- true;
        apply_corruption t c;
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
  (match List.assoc_opt s t.cfg.byz with
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
      let reqs = t.requests.(ci).(s) and reps = t.replies.(ci).(s) in
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

(* Sort [a.(lo)], ..., [a.(hi - 1)] in place: a handful of slots, so by
   insertion. *)
let sort_range a lo hi cmp =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) and j = ref (i - 1) in
    while !j >= lo && cmp a.(!j) x > 0 do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Symmetry reduction: the protocols never branch on a server's identity
   (uniform broadcast, uniform links) and the oracles only read the
   client-side history, so permuting server slots yields an isomorphic
   state with the same verdicts.  Only slots named by a corruption-menu
   item must keep their identity (a pending [Corrupt_server {server=2}]
   distinguishes slot 2).  Both the fingerprint and the search key see
   the state in canonical coordinates — named slots first in id order,
   then the anonymous slots sorted by their blocks under [block], a total
   preorder whose ties are exactly the equal blocks — and return the
   renaming so the checker can put sleep sets into the same coordinates
   (comparing sleep sets across symmetry-merged states is only sound
   canonically).

   A server id also escapes into client mailboxes (ack envelopes name
   their origin).  The references to a server ([refkey], ordered by
   [compare_refs]) are permutation-invariant, so refining the sort with
   them makes the canonical form complete: two states that differ only by
   a permutation of anonymous servers always read identically, and
   servers left tied (equal block, equal references) are true
   automorphisms, so the id tie-break is harmless.  A reference key is
   only ever compared between servers with equal blocks, so only those
   compute one.

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
let canonical t ~block ~refkey ~compare_refs =
  let n = Array.length t.servers in
  (* with every mailbox empty, every reference key is empty *)
  let quiet = Array.for_all (fun c -> match c.mailbox with [] -> true | _ :: _ -> false) t.clients in
  (* named slots first, in id order, then the anonymous ones by block *)
  let order = Array.make n 0 and named = List.length t.named in
  List.iteri (fun i s -> order.(i) <- s) t.named;
  let k = ref named in
  for s = 0 to n - 1 do
    if not (List.mem s t.named) then begin order.(!k) <- s; incr k end
  done;
  sort_range order named n (fun a b -> match block a b with 0 -> Int.compare a b | c -> c);
  (* Servers still tied after the (block, refkey) sort are genuinely
     interchangeable — swapping them is a state automorphism.  Map each
     to the least member of its tie group: the explorer only fires
     deliveries at class representatives, since the other successors are
     isomorphic (equal blocks include the link contents, so a
     representative's move is enabled whenever a class member's is). *)
  let rep_arr = Array.init n Fun.id in
  let rec runs i =
    if i < n then begin
      let j = ref (i + 1) in
      while !j < n && block order.(i) order.(!j) = 0 do incr j done;
      if !j - i > 1 then begin
        if quiet then
          for k = i + 1 to !j - 1 do rep_arr.(order.(k)) <- order.(i) done
        else begin
          let keys = Array.make n (refkey order.(i)) in
          for k = i + 1 to !j - 1 do keys.(order.(k)) <- refkey order.(k) done;
          sort_range order i !j (fun a b ->
              match compare_refs keys.(a) keys.(b) with 0 -> Int.compare a b | c -> c);
          for k = i + 1 to !j - 1 do
            if compare_refs keys.(order.(k - 1)) keys.(order.(k)) = 0 then
              rep_arr.(order.(k)) <- rep_arr.(order.(k - 1))
          done
        end
      end;
      runs !j
    end
  in
  runs named;
  let canon = Array.make n 0 in
  Array.iteri (fun pos s -> canon.(s) <- pos) order;
  let ren s = if s >= 0 && s < n then canon.(s) else s in
  let rep s = if s >= 0 && s < n then rep_arr.(s) else s in
  (order, ren, rep)

(* The only place a state meets MD5: the digest artifacts record.  The
   whole text is rendered afresh on every call and nothing is written
   into the state. *)
let fingerprint_ex t =
  let blocks = Array.init (Array.length t.servers) (fun s -> render (fun k -> server_block k t s)) in
  let order, ren, rep =
    canonical t
      ~block:(fun x y -> String.compare blocks.(x) blocks.(y))
      ~refkey:(fun s -> render (fun k -> refkey k t s))
      ~compare_refs:String.compare
  in
  let b = Buffer.create 512 in
  (* servers in canonical order *)
  Array.iteri
    (fun pos s ->
      Buffer.add_char b 's'; Value.add_decimal b pos; Buffer.add_char b ':';
      Buffer.add_string b blocks.(s); Buffer.add_char b '\n')
    order;
  tail (Text b) t ren;
  ranked_history (Text b) t;
  (Digest.to_hex (Digest.string (Buffer.contents b)), ren, rep)

let fingerprint t =
  let d, _, _ = fingerprint_ex t in
  d

(* Walk [f] into fresh lanes and finish them into the section words at
   [t.hashes.(off)] and [t.hashes.(off + 1)]. *)
let store t off f =
  let h = lanes () in
  f (Words h);
  t.hashes.(off) <- avalanche h.a;
  t.hashes.(off + 1) <- avalanche h.b

let compare_pairs (a1, b1) (a2, b2) = match Int.compare a1 a2 with 0 -> Int.compare b1 b2 | c -> c

(* The fingerprint's walk into hash words: the stale section hashes are
   refreshed, the anonymous slots sorted by their hash words, and the
   blocks' words in that order, the tail and the history's words folded
   into one pair of lanes.  Nothing is rendered, and no MD5 runs. *)
let search_key t =
  let n = Array.length t.servers and h = t.hashes in
  for s = 0 to n - 1 do
    if t.stale.(s) then begin
      store t (2 * s) (fun k -> server_block k t s);
      t.stale.(s) <- false
    end
  done;
  if t.hist_stale then begin
    store t (2 * n) (fun k -> ranked_history k t);
    t.hist_stale <- false
  end;
  let block x y =
    match Int.compare h.(2 * x) h.(2 * y) with
    | 0 -> Int.compare h.((2 * x) + 1) h.((2 * y) + 1)
    | c -> c
  in
  let order, ren, rep =
    canonical t ~block
      ~refkey:(fun s -> let r = lanes () in refkey (Words r) t s; finish r)
      ~compare_refs:compare_pairs
  in
  let key = lanes () in
  Array.iter (fun s -> words key h.(2 * s) h.((2 * s) + 1)) order;
  tail (Words key) t ren;
  words key h.(2 * n) h.((2 * n) + 1);
  let k1, k2 = finish key in
  (k1, k2, ren, rep)

let links (cfg : Config.t) = List.length (Config.client_ids cfg.family) * cfg.n * 2

let link_index t ren = function
  | Deliver { client; server; to_server } ->
    let ci = index t client in
    if ci < 0 then -1 else (((ci * t.cfg.n) + ren server) * 2) + if to_server then 0 else 1
  | Tick _ | Corrupt _ -> -1
